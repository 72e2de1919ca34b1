module Ring = Serve.Ring
module Tier = Serve.Tier

type config = Serve.Service.topology = {
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  vnodes : int;
  l2_capacity : int;
  l2_transfer_ps : int;
  spill : bool;
  up_frac : float;
  down_frac : float;
  slo_up : float;
  interval_ps : int;
  warmup_ps : int;
}

let default_config =
  {
    replicas = 4;
    min_replicas = 4;
    max_replicas = 4;
    vnodes = 16;
    l2_capacity = 256;
    l2_transfer_ps = 20_000_000 (* 20 us per fetched tile *);
    spill = true;
    up_frac = 0.75;
    down_frac = 0.15;
    slo_up = 0.5;
    interval_ps = 5_000_000_000 (* 5 ms *);
    warmup_ps = 20_000_000_000 (* 20 ms *);
  }

let keys =
  [
    "replicas"; "min"; "max"; "vnodes"; "l2"; "l2_us"; "spill"; "up"; "down";
    "slo"; "interval"; "warmup";
  ]

let ( let* ) = Result.bind

let parse_config s =
  let* pairs = Spec.parse_pairs s in
  let* () = Spec.check_known ~what:"fleet" keys pairs in
  let* replicas =
    Spec.int_field pairs "replicas" default_config.replicas
      (Spec.at_least "replicas" 1)
  in
  let* min_replicas =
    Spec.int_field pairs "min" replicas (Spec.at_least "min" 1)
  in
  let* max_replicas =
    Spec.int_field pairs "max"
      (Stdlib.max replicas min_replicas)
      (Spec.at_least "max" 1)
  in
  let* vnodes =
    Spec.int_field pairs "vnodes" default_config.vnodes
      (Spec.at_least "vnodes" 1)
  in
  let* l2_capacity =
    Spec.int_field pairs "l2" default_config.l2_capacity (Spec.at_least "l2" 0)
  in
  let* l2_transfer_ps =
    Spec.float_field pairs "l2_us" default_config.l2_transfer_ps
      (Spec.duration Spec.Us "l2_us")
  in
  let* spill =
    Spec.int_field pairs "spill" default_config.spill (fun n ->
        Result.map (fun n -> n = 1) (Spec.in_range "spill" 0 1 n))
  in
  let* up_frac =
    Spec.float_field pairs "up" default_config.up_frac
      (Spec.unit_interval "up")
  in
  let* down_frac =
    Spec.float_field pairs "down" default_config.down_frac
      (Spec.unit_interval "down")
  in
  let* slo_up =
    Spec.float_field pairs "slo" default_config.slo_up
      (Spec.unit_interval "slo")
  in
  let* interval_ps =
    Spec.float_field pairs "interval" default_config.interval_ps
      (Spec.duration Spec.Ms ~positive:true "interval")
  in
  let* warmup_ps =
    Spec.float_field pairs "warmup" default_config.warmup_ps
      (Spec.duration Spec.Ms "warmup")
  in
  if min_replicas > replicas then
    Error
      (Printf.sprintf "min=%d must be <= replicas=%d" min_replicas replicas)
  else if max_replicas < replicas then
    Error
      (Printf.sprintf "max=%d must be >= replicas=%d" max_replicas replicas)
  else if down_frac > up_frac then
    Error (Printf.sprintf "down=%g must be <= up=%g" down_frac up_frac)
  else
    Ok
      {
        replicas;
        min_replicas;
        max_replicas;
        vnodes;
        l2_capacity;
        l2_transfer_ps;
        spill;
        up_frac;
        down_frac;
        slo_up;
        interval_ps;
        warmup_ps;
      }

let config_to_string c =
  let f = Spec.float_to_string in
  Printf.sprintf
    "replicas=%d,min=%d,max=%d,vnodes=%d,l2=%d,l2_us=%s,spill=%d,up=%s,down=%s,slo=%s,interval=%s,warmup=%s"
    c.replicas c.min_replicas c.max_replicas c.vnodes c.l2_capacity
    (f (Spec.of_ps Spec.Us c.l2_transfer_ps))
    (if c.spill then 1 else 0)
    (f c.up_frac) (f c.down_frac) (f c.slo_up)
    (f (Spec.of_ps Spec.Ms c.interval_ps))
    (f (Spec.of_ps Spec.Ms c.warmup_ps))

type t = { fc : config; svc : Serve.Service.t }

(* A config is valid iff its canonical string parses (back to the same
   config, as the spec fuzz checks), so one set of checks serves spec
   strings and records alike. *)
let create ?(config = default_config) ?service corpus =
  match parse_config (config_to_string config) with
  | Ok _ -> { fc = config; svc = Serve.Service.create ?config:service corpus }
  | Error e -> invalid_arg ("Fleet.create: " ^ e)

let service t = t.svc

(* -- report types ----------------------------------------------------- *)

type tier_stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  hit_rate : float;
}

type l2_stats = {
  l2_capacity : int;
  l2_tier : tier_stats;
  l2_transfers : int;
  l2_transfer_ms : float;
  l2_invalidations : int;
}

type replica_stat = Serve.Service.replica_stat = {
  rs_id : int;
  rs_served : int;
  rs_batches : int;
  rs_busy_ms : float;
}

type report = {
  fleet : string;
  workload : string;
  streams : int;
  policy : string;
  queue_capacity : int;
  l1_capacity : int;
  max_batch : int;
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  peak_replicas : int;
  final_replicas : int;
  scale_ups : int;
  scale_downs : int;
  scale_events : (float * string) list;
  total : int;
  served : int;
  rejected : int;
  dropped : int;
  degraded : int;
  spilled : int;
  batches : int;
  coalesced : int;
  concealed_blocks : int;
  makespan_ms : float;
  throughput_rps : float;
  latency : Serve.Service.latency;
  slo_misses : int;
  slo_miss_rate : float;
  l1 : tier_stats;
  l2 : l2_stats option;
  per_replica : replica_stat list;
  ingest : Serve.Service.ingest_stats option;
  pixels_digest : string;
}

let tier_of (s : Serve.Lru.stats) =
  {
    hits = s.Serve.Lru.hits;
    misses = s.Serve.Lru.misses;
    insertions = s.Serve.Lru.insertions;
    evictions = s.Serve.Lru.evictions;
    hit_rate = Serve.Lru.hit_rate s;
  }

(* -- running ----------------------------------------------------------- *)

(* One track per replica carries its queue, execution, batches and
   ingest; admission and scaling decisions go to the front end. *)
let names =
  {
    Serve.Service.metric = "fleet.";
    front = "fleet.front";
    track = (fun i _ -> Printf.sprintf "fleet.r%d" i);
  }

let run ?pool ?on_complete ?on_flush t spec =
  let fc = t.fc in
  let r, f =
    Serve.Service.run_replicas ?pool ?on_complete ?on_flush ~names fc t.svc spec
  in
  {
    fleet = config_to_string fc;
    workload = r.Serve.Service.workload;
    streams = r.Serve.Service.streams;
    policy = r.Serve.Service.policy;
    queue_capacity = r.Serve.Service.queue_capacity;
    l1_capacity = r.Serve.Service.cache_capacity;
    max_batch = r.Serve.Service.max_batch;
    replicas = fc.replicas;
    min_replicas = fc.min_replicas;
    max_replicas = fc.max_replicas;
    peak_replicas = f.Serve.Service.peak_replicas;
    final_replicas = f.Serve.Service.final_replicas;
    scale_ups = f.Serve.Service.scale_ups;
    scale_downs = f.Serve.Service.scale_downs;
    scale_events = f.Serve.Service.scale_events;
    total = r.Serve.Service.total;
    served = r.Serve.Service.served;
    rejected = r.Serve.Service.rejected;
    dropped = r.Serve.Service.dropped;
    degraded = r.Serve.Service.degraded;
    spilled = f.Serve.Service.spilled;
    batches = r.Serve.Service.batches;
    coalesced = r.Serve.Service.coalesced;
    concealed_blocks = r.Serve.Service.concealed_blocks;
    makespan_ms = r.Serve.Service.makespan_ms;
    throughput_rps = r.Serve.Service.throughput_rps;
    latency = r.Serve.Service.latency;
    slo_misses = r.Serve.Service.slo_misses;
    slo_miss_rate = r.Serve.Service.slo_miss_rate;
    l1 = tier_of f.Serve.Service.l1;
    l2 =
      Option.map
        (fun t2 ->
          {
            l2_capacity = fc.l2_capacity;
            l2_tier = tier_of (Tier.stats t2);
            l2_transfers = Tier.transfers t2;
            l2_transfer_ms = Spec.of_ps Spec.Ms (Tier.transferred_ps t2);
            l2_invalidations = Tier.invalidations t2;
          })
        f.Serve.Service.l2;
    per_replica = f.Serve.Service.per_replica;
    ingest = r.Serve.Service.ingest;
    pixels_digest = r.Serve.Service.pixels_digest;
  }

(* -- rendering --------------------------------------------------------- *)

let tier_fields t =
  let open Telemetry.Json in
  [
    ("hits", Int t.hits);
    ("misses", Int t.misses);
    ("insertions", Int t.insertions);
    ("evictions", Int t.evictions);
    ("hit_rate", Float t.hit_rate);
  ]

let report_to_json r =
  let open Telemetry.Json in
  Obj
    [
      ("fleet", Str r.fleet);
      ("workload", Str r.workload);
      ("streams", Int r.streams);
      ("policy", Str r.policy);
      ("queue_capacity", Int r.queue_capacity);
      ("l1_capacity", Int r.l1_capacity);
      ("max_batch", Int r.max_batch);
      ( "replicas",
        Obj
          [
            ("initial", Int r.replicas);
            ("min", Int r.min_replicas);
            ("max", Int r.max_replicas);
            ("peak", Int r.peak_replicas);
            ("final", Int r.final_replicas);
            ("scale_ups", Int r.scale_ups);
            ("scale_downs", Int r.scale_downs);
            ( "events",
              List
                (List.map
                   (fun (ms, e) ->
                     Obj [ ("t_ms", Float ms); ("event", Str e) ])
                   r.scale_events) );
          ] );
      ("total", Int r.total);
      ("served", Int r.served);
      ("rejected", Int r.rejected);
      ("dropped", Int r.dropped);
      ("degraded", Int r.degraded);
      ("spilled", Int r.spilled);
      ("batches", Int r.batches);
      ("coalesced", Int r.coalesced);
      ("concealed_blocks", Int r.concealed_blocks);
      ("makespan_ms", Float r.makespan_ms);
      ("throughput_rps", Float r.throughput_rps);
      ("latency_ms", Serve.Service.latency_to_json r.latency);
      ("slo_misses", Int r.slo_misses);
      ("slo_miss_rate", Float r.slo_miss_rate);
      ("l1", Obj (tier_fields r.l1));
      ( "l2",
        match r.l2 with
        | None -> Null
        | Some l ->
          Obj
            ((("capacity", Int l.l2_capacity) :: tier_fields l.l2_tier)
            @ [
                ("transfers", Int l.l2_transfers);
                ("transfer_ms", Float l.l2_transfer_ms);
                ("invalidations", Int l.l2_invalidations);
              ]) );
      ( "per_replica",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("id", Int p.rs_id);
                   ("served", Int p.rs_served);
                   ("batches", Int p.rs_batches);
                   ("busy_ms", Float p.rs_busy_ms);
                 ])
             r.per_replica) );
      ("ingest", Serve.Service.ingest_to_json r.ingest);
      ("pixels_digest", Str r.pixels_digest);
    ]

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "fleet:           %s@," r.fleet;
  Format.fprintf ppf "workload:        %s@," r.workload;
  Format.fprintf ppf "streams:         %d@," r.streams;
  Format.fprintf ppf "policy:          %s (queue %d, L1 %d, batch %d)@,"
    r.policy r.queue_capacity r.l1_capacity r.max_batch;
  Format.fprintf ppf
    "replicas:        %d initial (min %d, max %d), peak %d, final %d@,"
    r.replicas r.min_replicas r.max_replicas r.peak_replicas r.final_replicas;
  if r.scale_ups > 0 || r.scale_downs > 0 then begin
    Format.fprintf ppf "autoscale:       %d up, %d down" r.scale_ups
      r.scale_downs;
    (match r.scale_events with
    | [] -> ()
    | evs ->
      Format.fprintf ppf " [%s]"
        (String.concat ", "
           (List.map
              (fun (ms, e) -> Printf.sprintf "%s@%.1fms" e ms)
              evs)));
    Format.fprintf ppf "@,"
  end;
  Format.fprintf ppf
    "requests:        %d total, %d served, %d rejected, %d dropped, %d degraded, %d spilled@,"
    r.total r.served r.rejected r.dropped r.degraded r.spilled;
  Format.fprintf ppf "batches:         %d (%d tile needs coalesced)@,"
    r.batches r.coalesced;
  if r.concealed_blocks > 0 then
    Format.fprintf ppf "concealed:       %d blocks@," r.concealed_blocks;
  Format.fprintf ppf "makespan:        %.3f ms (%.1f req/s)@," r.makespan_ms
    r.throughput_rps;
  Format.fprintf ppf
    "latency [ms]:    mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f@,"
    r.latency.Serve.Service.mean_ms r.latency.Serve.Service.p50_ms
    r.latency.Serve.Service.p95_ms r.latency.Serve.Service.p99_ms
    r.latency.Serve.Service.max_ms;
  Format.fprintf ppf "SLO:             %d misses (%.1f%% of %d)@," r.slo_misses
    (100.0 *. r.slo_miss_rate) r.total;
  Format.fprintf ppf
    "L1 (all replicas): %d hits, %d misses, %d evictions (%.1f%% hit rate)@,"
    r.l1.hits r.l1.misses r.l1.evictions (100.0 *. r.l1.hit_rate);
  (match r.l2 with
  | None -> Format.fprintf ppf "L2:              disabled@,"
  | Some l ->
    Format.fprintf ppf
      "L2 (%d tiles):   %d hits, %d misses, %d evictions (%.1f%% hit rate)@,"
      l.l2_capacity l.l2_tier.hits l.l2_tier.misses l.l2_tier.evictions
      (100.0 *. l.l2_tier.hit_rate);
    Format.fprintf ppf
      "                 %d transfers, %.3f ms on the interconnect, %d invalidations@,"
      l.l2_transfers l.l2_transfer_ms l.l2_invalidations);
  List.iter
    (fun p ->
      Format.fprintf ppf
        "  r%-2d            %d served in %d batches, busy %.3f ms@," p.rs_id
        p.rs_served p.rs_batches p.rs_busy_ms)
    r.per_replica;
  Option.iter (Serve.Service.pp_ingest ppf) r.ingest;
  Format.fprintf ppf "pixels digest:   %s" r.pixels_digest;
  Format.fprintf ppf "@]"
