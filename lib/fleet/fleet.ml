module Ring = Ring
module Tier = Tier

type config = {
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
  seed : int;
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
    seed = 0;
  }

let ps_of_us f = int_of_float ((f *. 1e6) +. 0.5)

let keys =
  [
    "replicas"; "min"; "max"; "vnodes"; "l2"; "l2_us"; "spill"; "up"; "down";
    "slo"; "interval"; "warmup"; "seed";
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
    Spec.float_field pairs "l2_us" default_config.l2_transfer_ps (fun v ->
        Result.map ps_of_us (Spec.non_negative "l2_us" v))
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
    Spec.float_field pairs "interval" default_config.interval_ps (fun v ->
        Result.map Serve.Service.ps_of_ms (Spec.positive "interval" v))
  in
  let* warmup_ps =
    Spec.float_field pairs "warmup" default_config.warmup_ps (fun v ->
        Result.map Serve.Service.ps_of_ms (Spec.non_negative "warmup" v))
  in
  let* seed = Spec.int_field pairs "seed" default_config.seed Spec.any in
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
        seed;
      }

let config_to_string c =
  Printf.sprintf
    "replicas=%d,min=%d,max=%d,vnodes=%d,l2=%d,l2_us=%g,spill=%d,up=%g,down=%g,slo=%g,interval=%g,warmup=%g,seed=%d"
    c.replicas c.min_replicas c.max_replicas c.vnodes c.l2_capacity
    (float_of_int c.l2_transfer_ps /. 1e6)
    (if c.spill then 1 else 0)
    c.up_frac c.down_frac c.slo_up
    (Serve.Service.ms_of_ps c.interval_ps)
    (Serve.Service.ms_of_ps c.warmup_ps)
    c.seed

type t = { fc : config; svc : Serve.Service.t }

let create ?(config = default_config) ?service corpus =
  if config.replicas < 1 then invalid_arg "Fleet.create: replicas < 1";
  if config.min_replicas < 1 || config.min_replicas > config.replicas then
    invalid_arg "Fleet.create: min_replicas out of range";
  if config.max_replicas < config.replicas then
    invalid_arg "Fleet.create: max_replicas < replicas";
  if config.vnodes < 1 then invalid_arg "Fleet.create: vnodes < 1";
  if config.l2_capacity < 0 then invalid_arg "Fleet.create: l2_capacity < 0";
  if config.l2_transfer_ps < 0 then
    invalid_arg "Fleet.create: l2_transfer_ps < 0";
  if
    not
      (Float.is_finite config.up_frac
      && config.up_frac >= 0.0 && config.up_frac <= 1.0
      && Float.is_finite config.down_frac
      && config.down_frac >= 0.0
      && config.down_frac <= config.up_frac
      && Float.is_finite config.slo_up
      && config.slo_up >= 0.0 && config.slo_up <= 1.0)
  then invalid_arg "Fleet.create: autoscaler thresholds out of range";
  if config.interval_ps < 1 then invalid_arg "Fleet.create: interval_ps < 1";
  if config.warmup_ps < 0 then invalid_arg "Fleet.create: warmup_ps < 0";
  let svc = Serve.Service.create ?config:service corpus in
  if (Serve.Service.config svc).Serve.Service.ingest <> None then
    invalid_arg "Fleet.create: ingest is not supported in fleet mode";
  { fc = config; svc }

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

type replica_stat = {
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

(* -- replica state ----------------------------------------------------- *)

type rstate = Inactive | Warming | Active | Draining

type queued = { f_req : Serve.Request.t; f_degraded : bool }

type replica = {
  r_id : int;
  r_track : string;
  mutable r_state : rstate;
  mutable r_ready_ps : int;  (** warm-up completion when [Warming] *)
  mutable r_queue : queued list;
  mutable r_l1 : Serve.Cache.t option;
  mutable r_busy_until : int;
  mutable r_served : int;
  mutable r_batches : int;
  mutable r_busy_ps : int;
  mutable r_activated : bool;  (** ever joined the ring *)
}

(* -- the fleet event loop ---------------------------------------------- *)

let run ?(pool = Par.Pool.sequential) ?on_complete t spec =
  let fc = t.fc and svc = t.svc in
  let sc = Serve.Service.config svc in
  let streams = Serve.Service.streams svc in
  (match spec.Serve.Request.shape with
  | Serve.Request.Closed_loop _ ->
    invalid_arg "Fleet.run: closed-loop spec (fleet workloads are open-loop)"
  | Serve.Request.Open_loop _ -> ());
  let arrivals = Serve.Service.open_arrivals svc spec in
  let n_arr = Array.length arrivals in
  let l2 =
    if fc.l2_capacity > 0 then
      Some
        (Tier.create ~capacity:fc.l2_capacity ~transfer_ps:fc.l2_transfer_ps ())
    else None
  in
  let fresh_l1 () =
    if sc.Serve.Service.cache_capacity > 0 then
      Some (Serve.Cache.create ~capacity:sc.Serve.Service.cache_capacity)
    else None
  in
  let reps =
    Array.init fc.max_replicas (fun i ->
        {
          r_id = i;
          r_track = Printf.sprintf "fleet.r%d" i;
          r_state = Inactive;
          r_ready_ps = 0;
          r_queue = [];
          r_l1 = None;
          r_busy_until = 0;
          r_served = 0;
          r_batches = 0;
          r_busy_ps = 0;
          r_activated = false;
        })
  in
  for i = 0 to fc.replicas - 1 do
    reps.(i).r_state <- Active;
    reps.(i).r_l1 <- fresh_l1 ();
    reps.(i).r_activated <- true;
    (* every active replica owns a trace track from t=0, even one the
       balancer never routes to — an idle replica is a finding, not a
       hole in the trace *)
    Telemetry.Span.instant ~ts_ps:0 ~track:reps.(i).r_track ~cat:"lifecycle"
      "up"
  done;
  let ring = ref (Ring.create ~vnodes:fc.vnodes (List.init fc.replicas Fun.id)) in
  let front = "fleet.front" in
  (* the front end exists even on a run with no overload and no
     scaling decisions — its track should too *)
  Telemetry.Span.instant ~ts_ps:0 ~track:front ~cat:"lifecycle" "up";
  let now = ref 0 in
  let cursor = ref 0 in
  let total = ref 0
  and served = ref 0
  and rejected = ref 0
  and dropped = ref 0
  and degraded = ref 0
  and spilled = ref 0
  and batches = ref 0
  and coalesced = ref 0
  and concealed = ref 0
  and slo_late = ref 0 in
  let latencies = ref [] in
  (* (completion, replica, id, per-request digest) — sorted at the end
     so the fleet digest folds in global completion order *)
  let records = ref [] in
  let makespan = ref 0 in
  let scale_ups = ref 0 and scale_downs = ref 0 in
  let scale_events = ref [] in
  let peak = ref fc.replicas in
  let l1h = ref 0 and l1m = ref 0 and l1i = ref 0 and l1e = ref 0 in
  let fold_l1 rep =
    match rep.r_l1 with
    | None -> ()
    | Some c ->
      let s = Serve.Cache.stats c in
      l1h := !l1h + s.Serve.Lru.hits;
      l1m := !l1m + s.Serve.Lru.misses;
      l1i := !l1i + s.Serve.Lru.insertions;
      l1e := !l1e + s.Serve.Lru.evictions
  in
  let window_events = ref 0 and window_missed = ref 0 in
  let autoscale = fc.min_replicas <> fc.max_replicas in
  let next_eval = ref fc.interval_ps in
  let depth rep = List.length rep.r_queue in
  let active_count () =
    Array.fold_left (fun n r -> if r.r_state = Active then n + 1 else n) 0 reps
  in
  let emit_depth rep =
    Telemetry.Span.counter ~ts_ps:!now ~track:rep.r_track "queue_depth"
      (depth rep)
  in
  let trace_args (rq : Serve.Request.t) =
    [
      ("id", Telemetry.Event.Int rq.Serve.Request.id);
      ( "trace",
        Telemetry.Event.Str
          (Serve.Request.trace_to_string rq.Serve.Request.trace) );
    ]
  in
  (* Per-replica dispatch jitter: a deterministic sub-microsecond
     perturbation of the batch overhead, a pure hash of (fleet seed,
     replica, batch ordinal), so the replicas' virtual clocks drift
     apart the way independent machines' would without threatening
     replay stability. *)
  let jitter rep =
    Int64.to_int
      (Int64.logand
         (Faults.Rng.hash64
            (Faults.Rng.hash64
               (Int64.of_int fc.seed)
               (Int64.of_int (rep.r_id + 1)))
            (Int64.of_int (rep.r_batches + 1)))
         0x3FFFFL)
  in
  let oldest queue =
    List.fold_left
      (fun acc q ->
        match acc with
        | None -> Some q
        | Some b ->
          if
            q.f_req.Serve.Request.arrival_ps < b.f_req.Serve.Request.arrival_ps
            || (q.f_req.Serve.Request.arrival_ps
                  = b.f_req.Serve.Request.arrival_ps
               && q.f_req.Serve.Request.id < b.f_req.Serve.Request.id)
          then Some q
          else acc)
      None queue
  in
  (* Front-end admission: route to the ring owner, spill along the
     successor list when the owner is saturated, shed (or degrade)
     before any replica queue overflows. *)
  let admit (rq : Serve.Request.t) =
    incr total;
    Telemetry.Sink.incr "fleet.arrivals";
    let stream = streams.(rq.Serve.Request.stream) in
    match Ring.successors !ring (Serve.Service.stream_digest stream) with
    | [] -> assert false (* >= min_replicas stay active *)
    | owner_id :: rest -> (
      let owner = reps.(owner_id) in
      let highwater = Stdlib.max 1 (sc.Serve.Service.queue_capacity / 2) in
      let rq, was_degraded =
        if
          sc.Serve.Service.overload = Serve.Service.Degrade
          && depth owner >= highwater
        then
          match Serve.Service.degrade_target stream rq.Serve.Request.target with
          | Some target -> ({ rq with Serve.Request.target }, true)
          | None -> (rq, false)
        else (rq, false)
      in
      if was_degraded then begin
        incr degraded;
        Telemetry.Sink.incr "fleet.degraded";
        Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"overload"
          ~args:(trace_args rq) "degrade"
      end;
      let enqueue rep =
        rep.r_queue <- { f_req = rq; f_degraded = was_degraded } :: rep.r_queue;
        emit_depth rep
      in
      if depth owner < sc.Serve.Service.queue_capacity then enqueue owner
      else
        let spill_to =
          if fc.spill then
            List.find_opt
              (fun i -> depth reps.(i) < sc.Serve.Service.queue_capacity)
              rest
          else None
        in
        match spill_to with
        | Some i ->
          incr spilled;
          Telemetry.Sink.incr "fleet.spilled";
          Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"route"
            ~args:
              (trace_args rq
              @ [
                  ("owner", Telemetry.Event.Int owner_id);
                  ("to", Telemetry.Event.Int i);
                ])
            "spill";
          enqueue reps.(i)
        | None -> (
          match sc.Serve.Service.overload with
          | Serve.Service.Drop_oldest -> (
            match oldest owner.r_queue with
            | Some victim ->
              owner.r_queue <- List.filter (fun q -> q != victim) owner.r_queue;
              incr dropped;
              incr window_events;
              incr window_missed;
              Telemetry.Sink.incr "fleet.dropped";
              Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"overload"
                ~args:(trace_args victim.f_req) "drop-oldest";
              enqueue owner
            | None -> assert false)
          | Serve.Service.Reject | Serve.Service.Degrade ->
            incr rejected;
            incr window_events;
            incr window_missed;
            Telemetry.Sink.incr "fleet.rejected";
            Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"overload"
              ~args:(trace_args rq) "reject"))
  in
  (* One dispatched batch on one replica — the single service's plan /
     decode / serve-back-to-back protocol, with the shared L2 probed
     between the local L1 and a fresh entropy decode. *)
  let run_batch rep start batch =
    let j = jitter rep in
    incr batches;
    rep.r_batches <- rep.r_batches + 1;
    Telemetry.Sink.incr "fleet.batches";
    let staged_tbl = Hashtbl.create 32 in
    let staged_rev = ref [] and staged_count = ref 0 in
    let plans =
      List.map
        (fun q ->
          let rq = q.f_req in
          let stream = streams.(rq.Serve.Request.stream) in
          let needs =
            List.map
              (fun (tile_index, key) ->
                match
                  match rep.r_l1 with
                  | Some c -> Serve.Cache.find c key
                  | None -> None
                with
                | Some tile -> (key, `Hit tile)
                | None -> (
                  match Hashtbl.find_opt staged_tbl key with
                  | Some si ->
                    incr coalesced;
                    Telemetry.Sink.incr "fleet.coalesced";
                    (key, `Shared si)
                  | None -> (
                    match
                      match l2 with
                      | Some t2 -> Tier.find t2 key
                      | None -> None
                    with
                    | Some tile ->
                      (* pull through to the local L1 so this
                         replica's later batches hit at L1 cost *)
                      (match rep.r_l1 with
                      | Some c -> Serve.Cache.add c key tile
                      | None -> ());
                      Telemetry.Sink.incr "fleet.l2.fetches";
                      (key, `L2 tile)
                    | None ->
                      let st =
                        Jpeg2000.Decoder.stage_tile
                          ~discard:key.Serve.Cache.discard
                          (Serve.Service.stream_header stream)
                          (Serve.Service.stream_tile stream tile_index)
                      in
                      let si = !staged_count in
                      Hashtbl.replace staged_tbl key si;
                      staged_rev := (key, st) :: !staged_rev;
                      incr staged_count;
                      (key, `Fresh si))))
              (Serve.Service.needed_keys stream rq.Serve.Request.target)
          in
          (q, needs))
        batch
    in
    let staged = Array.of_list (List.rev !staged_rev) in
    let job_index =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun si (_, st) ->
                Array.init (Jpeg2000.Decoder.staged_jobs st) (fun ji -> (si, ji)))
              staged))
    in
    let oks =
      Par.Pool.map pool job_index (fun (si, ji) ->
          Jpeg2000.Decoder.staged_run (snd staged.(si)) ji)
    in
    let tiles = Array.make (Array.length staged) None in
    let offset = ref 0 in
    Array.iteri
      (fun si (key, st) ->
        let n = Jpeg2000.Decoder.staged_jobs st in
        let slice = Array.sub oks !offset n in
        offset := !offset + n;
        let tile, tile_concealed = Jpeg2000.Decoder.finish_staged_ok st slice in
        concealed := !concealed + tile_concealed;
        tiles.(si) <- Some tile;
        (match rep.r_l1 with
        | Some c -> Serve.Cache.add c key tile
        | None -> ());
        match l2 with Some t2 -> Tier.add t2 key tile | None -> ())
      staged;
    let tile_of = function
      | `Hit tile | `L2 tile -> tile
      | `Shared si | `Fresh si -> Option.get tiles.(si)
    in
    let cur = ref (start + Serve.Service.ps_per_batch + j) in
    List.iter
      (fun (q, needs) ->
        let rq = q.f_req in
        let stream = streams.(rq.Serve.Request.stream) in
        let cache_ps = ref 0
        and l2_ps = ref 0
        and entropy_ps = ref 0
        and reconstruct_ps = ref 0 in
        List.iter
          (fun (_, src) ->
            match src with
            | `Hit _ | `Shared _ ->
              cache_ps := !cache_ps + Serve.Service.ps_per_hit
            | `L2 _ ->
              l2_ps := !l2_ps + Serve.Service.ps_per_hit + fc.l2_transfer_ps
            | `Fresh si ->
              let st = snd staged.(si) in
              entropy_ps :=
                !entropy_ps
                + (Serve.Service.ps_per_block * Jpeg2000.Decoder.staged_jobs st)
                + Serve.Service.ps_per_coded_byte
                  * Jpeg2000.Decoder.staged_coded_bytes st;
              reconstruct_ps :=
                !reconstruct_ps
                + Serve.Service.ps_per_sample
                  * Jpeg2000.Decoder.staged_samples st)
          needs;
        let ow, oh = Serve.Service.output_dims stream rq.Serve.Request.target in
        let comps =
          (Serve.Service.stream_header stream).Jpeg2000.Codestream.components
        in
        let assemble_ps = Serve.Service.ps_per_out_sample * (ow * oh * comps) in
        let service_ps =
          !cache_ps + !l2_ps + !entropy_ps + !reconstruct_ps + assemble_ps
        in
        let st_start = !cur in
        cur := !cur + service_ps;
        let completion = !cur in
        let image =
          Serve.Service.assemble stream rq.Serve.Request.target
            (List.map (fun (_, src) -> tile_of src) needs)
        in
        rep.r_served <- rep.r_served + 1;
        incr served;
        let latency_ps = completion - rq.Serve.Request.arrival_ps in
        latencies := latency_ps :: !latencies;
        makespan := Stdlib.max !makespan completion;
        incr window_events;
        if completion > rq.Serve.Request.deadline_ps then begin
          incr slo_late;
          incr window_missed;
          Telemetry.Sink.incr "fleet.slo_misses";
          Telemetry.Span.instant ~ts_ps:completion ~track:rep.r_track
            ~cat:"slo" ~args:(trace_args rq) "deadline-miss"
        end;
        Telemetry.Sink.observe
          ~exemplar:
            ( rq.Serve.Request.id,
              Serve.Request.trace_to_string rq.Serve.Request.trace )
          "fleet.latency_us" (latency_ps / 1_000_000);
        Telemetry.Span.complete ~ts_ps:rq.Serve.Request.arrival_ps
          ~dur_ps:(st_start - rq.Serve.Request.arrival_ps) ~track:rep.r_track
          ~cat:"queue" ~args:(trace_args rq) "queued";
        Telemetry.Span.complete ~ts_ps:st_start ~dur_ps:service_ps
          ~track:rep.r_track ~cat:"serve"
          ~args:
            (trace_args rq
            @ [
                ("stream", Telemetry.Event.Int rq.Serve.Request.stream);
                ( "target",
                  Telemetry.Event.Str
                    (Format.asprintf "%a" Serve.Request.pp_target
                       rq.Serve.Request.target) );
                ("degraded", Telemetry.Event.Bool q.f_degraded);
              ])
          "request";
        ignore
          (List.fold_left
             (fun ts (stage, dur_ps) ->
               if dur_ps > 0 then
                 Telemetry.Span.complete ~ts_ps:ts ~dur_ps ~track:rep.r_track
                   ~cat:"stage" ~args:(trace_args rq) stage;
               ts + dur_ps)
             st_start
             [
               ("cache", !cache_ps);
               ("l2", !l2_ps);
               ("entropy", !entropy_ps);
               ("reconstruct", !reconstruct_ps);
               ("assemble", assemble_ps);
             ]);
        let h =
          Serve.Fnv.image (Serve.Fnv.int Serve.Fnv.basis rq.Serve.Request.id)
            image
        in
        records := (completion, rep.r_id, rq.Serve.Request.id, h) :: !records;
        match on_complete with
        | Some f -> f rep.r_id rq image
        | None -> ())
      plans;
    Telemetry.Span.complete ~ts_ps:start ~dur_ps:(!cur - start)
      ~track:rep.r_track ~cat:"batch"
      ~args:
        [
          ("requests", Telemetry.Event.Int (List.length batch));
          ("jobs", Telemetry.Event.Int (Array.length job_index));
        ]
      "batch";
    rep.r_busy_ps <- rep.r_busy_ps + (!cur - start);
    rep.r_busy_until <- !cur
  in
  let deactivate rep =
    fold_l1 rep;
    rep.r_l1 <- None;
    rep.r_state <- Inactive
  in
  let activate rep =
    rep.r_state <- Active;
    rep.r_l1 <- fresh_l1 ();
    rep.r_activated <- true;
    rep.r_busy_until <- Stdlib.max rep.r_busy_until !now;
    ring := Ring.add !ring rep.r_id;
    peak := Stdlib.max !peak (active_count ());
    Telemetry.Span.instant ~ts_ps:!now ~track:rep.r_track ~cat:"lifecycle" "up";
    Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"autoscale"
      ~args:[ ("replica", Telemetry.Event.Int rep.r_id) ]
      "join"
  in
  let eval_autoscaler () =
    let active =
      List.filter (fun r -> r.r_state = Active) (Array.to_list reps)
    in
    let n_active = List.length active in
    let warming =
      Array.fold_left
        (fun n r -> if r.r_state = Warming then n + 1 else n)
        0 reps
    in
    let depth_sum = List.fold_left (fun s r -> s + depth r) 0 active in
    let depth_frac =
      if n_active = 0 then 0.0
      else
        float_of_int depth_sum
        /. float_of_int (n_active * sc.Serve.Service.queue_capacity)
    in
    let miss_rate =
      if !window_events = 0 then 0.0
      else float_of_int !window_missed /. float_of_int !window_events
    in
    if
      (depth_frac >= fc.up_frac || miss_rate >= fc.slo_up)
      && n_active + warming < fc.max_replicas
    then begin
      let rec first_inactive i =
        if i >= fc.max_replicas then None
        else if reps.(i).r_state = Inactive then Some i
        else first_inactive (i + 1)
      in
      match first_inactive 0 with
      | None -> ()
      | Some i ->
        let rep = reps.(i) in
        rep.r_state <- Warming;
        rep.r_ready_ps <- !now + fc.warmup_ps;
        incr scale_ups;
        scale_events :=
          (Serve.Service.ms_of_ps !now, Printf.sprintf "+r%d" i)
          :: !scale_events;
        Telemetry.Sink.incr "fleet.scale_ups";
        Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"autoscale"
          ~args:[ ("replica", Telemetry.Event.Int i) ]
          "scale-up"
    end
    else if
      depth_frac <= fc.down_frac
      && miss_rate < fc.slo_up && warming = 0
      && n_active > fc.min_replicas
    then begin
      let victim =
        List.fold_left
          (fun acc r ->
            match acc with
            | None -> Some r
            | Some b ->
              if depth r < depth b || (depth r = depth b && r.r_id > b.r_id)
              then Some r
              else acc)
          None active
      in
      match victim with
      | None -> ()
      | Some rep ->
        ring := Ring.remove !ring rep.r_id;
        incr scale_downs;
        scale_events :=
          (Serve.Service.ms_of_ps !now, Printf.sprintf "-r%d" rep.r_id)
          :: !scale_events;
        Telemetry.Sink.incr "fleet.scale_downs";
        Telemetry.Span.instant ~ts_ps:!now ~track:front ~cat:"autoscale"
          ~args:[ ("replica", Telemetry.Event.Int rep.r_id) ]
          "scale-down";
        if rep.r_queue = [] then deactivate rep else rep.r_state <- Draining
    end;
    window_events := 0;
    window_missed := 0
  in
  (* Main loop: advance the clock to the earliest pending event and
     process everything due, always in the same order (warm-ups, the
     autoscaler, arrivals, then dispatches in replica-id order) so
     simultaneous events resolve deterministically. Replicas serve in
     parallel on the virtual clock — each one's busy window only gates
     its own queue. *)
  let queues_nonempty () = Array.exists (fun r -> r.r_queue <> []) reps in
  while !cursor < n_arr || queues_nonempty () do
    let t = ref max_int in
    if !cursor < n_arr then
      t := Stdlib.min !t arrivals.(!cursor).Serve.Request.arrival_ps;
    Array.iter
      (fun r ->
        match r.r_state with
        | Warming -> t := Stdlib.min !t r.r_ready_ps
        | Active | Draining ->
          if r.r_queue <> [] then
            t := Stdlib.min !t (Stdlib.max r.r_busy_until !now)
        | Inactive -> ())
      reps;
    if autoscale then t := Stdlib.min !t !next_eval;
    now := Stdlib.max !now !t;
    Array.iter
      (fun r -> if r.r_state = Warming && r.r_ready_ps <= !now then activate r)
      reps;
    if autoscale && !next_eval <= !now then begin
      eval_autoscaler ();
      next_eval := !now + fc.interval_ps
    end;
    while
      !cursor < n_arr && arrivals.(!cursor).Serve.Request.arrival_ps <= !now
    do
      admit arrivals.(!cursor);
      incr cursor
    done;
    Array.iter
      (fun r ->
        if
          (r.r_state = Active || r.r_state = Draining)
          && r.r_queue <> []
          && r.r_busy_until <= !now
        then begin
          let sorted =
            List.sort
              (fun a b -> Serve.Service.edf_request_order a.f_req b.f_req)
              r.r_queue
          in
          let rec take k = function
            | [] -> ([], [])
            | x :: rest when k > 0 ->
              let b, l = take (k - 1) rest in
              (x :: b, l)
            | rest -> ([], rest)
          in
          let batch, leftover = take sc.Serve.Service.max_batch sorted in
          r.r_queue <- leftover;
          emit_depth r;
          run_batch r (Stdlib.max r.r_busy_until !now) batch;
          if r.r_state = Draining && r.r_queue = [] then deactivate r
        end)
      reps
  done;
  Array.iter fold_l1 reps;
  Telemetry.Sink.incr ~by:!l1h "fleet.l1.hits";
  Telemetry.Sink.incr ~by:!l1m "fleet.l1.misses";
  (match l2 with
  | None -> ()
  | Some t2 ->
    let s = Tier.stats t2 in
    Telemetry.Sink.incr ~by:s.Serve.Lru.hits "fleet.l2.hits";
    Telemetry.Sink.incr ~by:s.Serve.Lru.misses "fleet.l2.misses");
  (* Fold per-request digests in global completion order; ties (same
     instant on two replicas) break on (replica, id), so the fleet
     digest is as replay-stable as the per-replica ones. *)
  let recs = List.sort compare !records in
  let pixels =
    List.fold_left
      (fun h (_, _, _, hr) ->
        Serve.Fnv.int
          (Serve.Fnv.int h (Int64.to_int (Int64.shift_right_logical hr 32)))
          (Int64.to_int (Int64.logand hr 0xFFFFFFFFL)))
      Serve.Fnv.basis recs
  in
  let latency = Serve.Service.latency_of !latencies in
  let makespan_ms = Serve.Service.ms_of_ps !makespan in
  let slo_misses = !slo_late + !rejected + !dropped in
  {
    fleet = config_to_string fc;
    workload = Serve.Request.spec_to_string spec;
    streams = Array.length streams;
    policy = Serve.Service.overload_to_string sc.Serve.Service.overload;
    queue_capacity = sc.Serve.Service.queue_capacity;
    l1_capacity = sc.Serve.Service.cache_capacity;
    max_batch = sc.Serve.Service.max_batch;
    replicas = fc.replicas;
    min_replicas = fc.min_replicas;
    max_replicas = fc.max_replicas;
    peak_replicas = !peak;
    final_replicas = active_count ();
    scale_ups = !scale_ups;
    scale_downs = !scale_downs;
    scale_events = List.rev !scale_events;
    total = !total;
    served = !served;
    rejected = !rejected;
    dropped = !dropped;
    degraded = !degraded;
    spilled = !spilled;
    batches = !batches;
    coalesced = !coalesced;
    concealed_blocks = !concealed;
    makespan_ms;
    throughput_rps =
      (if makespan_ms > 0.0 then float_of_int !served /. (makespan_ms /. 1000.0)
       else 0.0);
    latency;
    slo_misses;
    slo_miss_rate =
      (if !total = 0 then 0.0
       else float_of_int slo_misses /. float_of_int !total);
    l1 =
      tier_of
        {
          Serve.Lru.hits = !l1h;
          misses = !l1m;
          insertions = !l1i;
          evictions = !l1e;
        };
    l2 =
      Option.map
        (fun t2 ->
          {
            l2_capacity = fc.l2_capacity;
            l2_tier = tier_of (Tier.stats t2);
            l2_transfers = Tier.transfers t2;
            l2_transfer_ms = Serve.Service.ms_of_ps (Tier.transferred_ps t2);
            l2_invalidations = Tier.invalidations t2;
          })
        l2;
    per_replica =
      List.filter_map
        (fun r ->
          if r.r_activated then
            Some
              {
                rs_id = r.r_id;
                rs_served = r.r_served;
                rs_batches = r.r_batches;
                rs_busy_ms = Serve.Service.ms_of_ps r.r_busy_ps;
              }
          else None)
        (Array.to_list reps);
    pixels_digest = Printf.sprintf "%016Lx" pixels;
  }

(* -- rendering --------------------------------------------------------- *)

let tier_json t =
  let open Telemetry.Json in
  Obj
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
      ( "latency_ms",
        Obj
          [
            ("mean", Float r.latency.Serve.Service.mean_ms);
            ("p50", Float r.latency.Serve.Service.p50_ms);
            ("p95", Float r.latency.Serve.Service.p95_ms);
            ("p99", Float r.latency.Serve.Service.p99_ms);
            ("max", Float r.latency.Serve.Service.max_ms);
          ] );
      ("slo_misses", Int r.slo_misses);
      ("slo_miss_rate", Float r.slo_miss_rate);
      ("l1", tier_json r.l1);
      ( "l2",
        match r.l2 with
        | None -> Null
        | Some l ->
          Obj
            [
              ("capacity", Int l.l2_capacity);
              ("hits", Int l.l2_tier.hits);
              ("misses", Int l.l2_tier.misses);
              ("insertions", Int l.l2_tier.insertions);
              ("evictions", Int l.l2_tier.evictions);
              ("hit_rate", Float l.l2_tier.hit_rate);
              ("transfers", Int l.l2_transfers);
              ("transfer_ms", Float l.l2_transfer_ms);
              ("invalidations", Int l.l2_invalidations);
            ] );
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
  Format.fprintf ppf "pixels digest:   %s" r.pixels_digest;
  Format.fprintf ppf "@]"
