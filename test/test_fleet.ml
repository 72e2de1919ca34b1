(* Tests for the sharded decode fleet: the consistent-hash ring's
   remapping guarantees, the shared L2 tier's transfer accounting and
   invalidation honesty, and the fleet's determinism, admission
   policies and autoscaler. *)

let qc = QCheck_alcotest.to_alcotest

(* -- ring ------------------------------------------------------------- *)

let digests ~seed n =
  Array.init n (fun i ->
      Faults.Rng.hash64 (Int64.of_int (seed + 1)) (Int64.of_int (i + 1)))

let test_ring_empty_and_validation () =
  let empty = Fleet.Ring.create [] in
  Alcotest.(check bool) "empty" true (Fleet.Ring.is_empty empty);
  Alcotest.(check (option int)) "owns nothing" None
    (Fleet.Ring.owner empty 42L);
  Alcotest.(check (list int)) "no successors" []
    (Fleet.Ring.successors empty 42L);
  Alcotest.check_raises "vnodes < 1"
    (Invalid_argument "Fleet.Ring.create: vnodes < 1") (fun () ->
      ignore (Fleet.Ring.create ~vnodes:0 [ 1 ]))

let test_ring_members_dedup () =
  let ring = Fleet.Ring.create [ 3; 1; 3; 2; 1 ] in
  Alcotest.(check (list int)) "sorted distinct" [ 1; 2; 3 ]
    (Fleet.Ring.members ring);
  Alcotest.(check (list int)) "re-adding a member is a no-op" [ 1; 2; 3 ]
    (Fleet.Ring.members (Fleet.Ring.add ring 2));
  Alcotest.(check (list int)) "removing a non-member is a no-op" [ 1; 2; 3 ]
    (Fleet.Ring.members (Fleet.Ring.remove ring 9))

let test_ring_owner_and_successors () =
  let ring = Fleet.Ring.create [ 0; 1; 2; 3 ] in
  Array.iter
    (fun d ->
      let owner =
        match Fleet.Ring.owner ring d with
        | Some r -> r
        | None -> Alcotest.fail "non-empty ring owns every key"
      in
      let succ = Fleet.Ring.successors ring d in
      Alcotest.(check int) "owner heads the successor list" owner
        (List.hd succ);
      Alcotest.(check (list int)) "successors permute the members"
        [ 0; 1; 2; 3 ]
        (List.sort compare succ))
    (digests ~seed:7 64)

(* The two directions of the consistent-hashing contract: membership
   churn must remap exactly the departed member's keys (and nothing
   else), and each remapped key must move to the ring-order
   successor / the new member. *)
let prop_ring_remove_remaps_only_removed =
  QCheck.Test.make ~name:"remove remaps only the removed member's keys"
    ~count:40
    QCheck.(triple (int_range 2 10) small_int small_int)
    (fun (n, victim_seed, key_seed) ->
      let members = List.init n Fun.id in
      let victim = victim_seed mod n in
      let ring = Fleet.Ring.create members in
      let shrunk = Fleet.Ring.remove ring victim in
      Array.for_all
        (fun d ->
          let before = Fleet.Ring.owner ring d
          and after = Fleet.Ring.owner shrunk d in
          match (before, after) with
          | Some b, Some a when b <> victim -> a = b
          | Some _, Some a ->
            (* the key must move to the old ring's next distinct
               member, skipping the victim *)
            let next =
              List.find (fun r -> r <> victim) (Fleet.Ring.successors ring d)
            in
            a = next
          | _ -> false)
        (digests ~seed:key_seed 200))

let prop_ring_add_remaps_only_to_new =
  QCheck.Test.make ~name:"add remaps keys only onto the new member"
    ~count:40
    QCheck.(pair (int_range 1 10) small_int)
    (fun (n, key_seed) ->
      let ring = Fleet.Ring.create (List.init n Fun.id) in
      let grown = Fleet.Ring.add ring n in
      Array.for_all
        (fun d ->
          let before = Fleet.Ring.owner ring d
          and after = Fleet.Ring.owner grown d in
          match (before, after) with
          | Some b, Some a -> a = b || a = n
          | _ -> false)
        (digests ~seed:key_seed 200))

let test_ring_remap_fraction () =
  (* Removing one of 16 members must remap about 1/16 of the
     keyspace; the hashes are fixed, so this is a deterministic
     measurement with loose bounds. *)
  let keys = digests ~seed:2008 10_000 in
  let ring = Fleet.Ring.create (List.init 16 Fun.id) in
  let shrunk = Fleet.Ring.remove ring 5 in
  let remapped =
    Array.fold_left
      (fun acc d ->
        if Fleet.Ring.owner ring d <> Fleet.Ring.owner shrunk d then acc + 1
        else acc)
      0 keys
  in
  let fraction = float_of_int remapped /. float_of_int (Array.length keys) in
  Alcotest.(check bool)
    (Printf.sprintf "remapped fraction %.4f within [0.02, 0.15]" fraction)
    true
    (fraction >= 0.02 && fraction <= 0.15)

(* -- shared L2 tier ---------------------------------------------------- *)

let corpus () =
  Array.init 2 (fun i ->
      Models.Workload.codestream ~width:64 ~height:64 ~seed:(2008 + i)
        Jpeg2000.Codestream.Lossless)

(* A real decoded tile for cache payloads (the tier stores whatever
   tiles the decode produces; the tests only care about identity). *)
let some_tile data =
  let stream = Jpeg2000.Codestream.parse data in
  let header = stream.Jpeg2000.Codestream.header in
  let seg = List.hd stream.Jpeg2000.Codestream.tiles in
  let st = Jpeg2000.Decoder.stage_tile ~discard:0 header seg in
  let ok =
    Array.init (Jpeg2000.Decoder.staged_jobs st) (Jpeg2000.Decoder.staged_run st)
  in
  fst (Jpeg2000.Decoder.finish_staged_ok st ok)

let key ~digest ~tile =
  { Serve.Cache.digest; length = 1000; tile; discard = 0 }

let test_tier_validation () =
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Fleet.Tier.create: capacity < 1") (fun () ->
      ignore (Fleet.Tier.create ~capacity:0 ~transfer_ps:0 ()));
  Alcotest.check_raises "transfer_ps < 0"
    (Invalid_argument "Fleet.Tier.create: transfer_ps < 0") (fun () ->
      ignore (Fleet.Tier.create ~capacity:4 ~transfer_ps:(-1) ()))

let test_tier_transfer_accounting () =
  let tile = some_tile (corpus ()).(0) in
  let t = Fleet.Tier.create ~capacity:4 ~transfer_ps:1_000 () in
  let k = key ~digest:17L ~tile:0 in
  Alcotest.(check bool) "miss" true (Fleet.Tier.find t k = None);
  Alcotest.(check int) "a miss is not a transfer" 0 (Fleet.Tier.transfers t);
  Fleet.Tier.add t k tile;
  Alcotest.(check bool) "hit" true (Fleet.Tier.find t k <> None);
  Alcotest.(check int) "one transfer" 1 (Fleet.Tier.transfers t);
  Alcotest.(check int) "priced per fetch" 1_000 (Fleet.Tier.transferred_ps t);
  let s = Fleet.Tier.stats t in
  Alcotest.(check int) "hits" 1 s.Serve.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Serve.Lru.misses

let test_tier_invalidation_never_stale () =
  (* Force every key into one bucket: invalidation must still drop
     exactly the named stream's tiles and keep serving the rest. *)
  let tile = some_tile (corpus ()).(0) in
  let t = Fleet.Tier.create ~hash:(fun _ -> 0) ~capacity:32 ~transfer_ps:0 () in
  let ks_a = List.init 4 (fun i -> key ~digest:5L ~tile:i)
  and ks_b = List.init 4 (fun i -> key ~digest:6L ~tile:i) in
  List.iter (fun k -> Fleet.Tier.add t k tile) (ks_a @ ks_b);
  let dropped = Fleet.Tier.invalidate_stream t ~digest:5L ~length:1000 in
  Alcotest.(check int) "dropped all of stream A" 4 dropped;
  Alcotest.(check int) "counted" 4 (Fleet.Tier.invalidations t);
  List.iter
    (fun k ->
      Alcotest.(check bool) "stream A gone" true (Fleet.Tier.find t k = None))
    ks_a;
  List.iter
    (fun k ->
      Alcotest.(check bool) "stream B intact" true (Fleet.Tier.find t k <> None))
    ks_b;
  (* A matching digest with a different length names a different
     stream: it must survive. *)
  let k_len = { (key ~digest:5L ~tile:9) with Serve.Cache.length = 999 } in
  Fleet.Tier.add t k_len tile;
  ignore (Fleet.Tier.invalidate_stream t ~digest:5L ~length:1000);
  Alcotest.(check bool) "same digest, other length survives" true
    (Fleet.Tier.find t k_len <> None)

let prop_tier_invalidate_collisions =
  QCheck.Test.make
    ~name:"invalidation never serves a stale tile (colliding hashes)"
    ~count:30
    QCheck.(triple (int_range 1 4) (int_range 1 12) small_int)
    (fun (streams, tiles, pick_seed) ->
      let tile = some_tile (corpus ()).(0) in
      let t =
        Fleet.Tier.create ~hash:(fun _ -> 0) ~capacity:128 ~transfer_ps:0 ()
      in
      let keys_of s = List.init tiles (fun i -> key ~digest:(Int64.of_int (s + 1)) ~tile:i) in
      for s = 0 to streams - 1 do
        List.iter (fun k -> Fleet.Tier.add t k tile) (keys_of s)
      done;
      let victim = pick_seed mod streams in
      let dropped =
        Fleet.Tier.invalidate_stream t
          ~digest:(Int64.of_int (victim + 1))
          ~length:1000
      in
      dropped = tiles
      && List.for_all (fun k -> Fleet.Tier.find t k = None) (keys_of victim)
      && List.for_all
           (fun s ->
             s = victim
             || List.for_all (fun k -> Fleet.Tier.find t k <> None) (keys_of s))
           (List.init streams Fun.id))

(* -- fleet ------------------------------------------------------------- *)

let spec_exn s =
  match Serve.Request.parse_spec s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad spec %S: %s" s e

let report_string r = Telemetry.Json.to_string (Fleet.report_to_json r)

let small_l1 capacity =
  { Serve.Service.default_config with Serve.Service.cache_capacity = capacity }

let test_fleet_rerun_and_jobs_invariant () =
  (* Autoscaling, spill and the shared L2 all active: the report must
     still be byte-identical across reruns and across worker
     counts. *)
  let config =
    {
      Fleet.default_config with
      Fleet.replicas = 2;
      min_replicas = 1;
      max_replicas = 4;
      l2_capacity = 32;
      interval_ps = 2_000_000_000;
      warmup_ps = 5_000_000_000;
    }
  in
  let run_with jobs =
    let fleet = Fleet.create ~config ~service:(small_l1 4) (corpus ()) in
    Par.Pool.with_jobs jobs (fun pool ->
        report_string
          (Fleet.run ~pool fleet (spec_exn "open:n=32,rate=2500,seed=5,deadline=15")))
  in
  let a = run_with 1 in
  Alcotest.(check string) "rerun" a (run_with 1);
  Alcotest.(check string) "jobs=2" a (run_with 2);
  Alcotest.(check string) "jobs=4" a (run_with 4)

let test_fleet_counters_balance () =
  let fleet =
    Fleet.create
      ~config:{ Fleet.default_config with Fleet.replicas = 3; min_replicas = 3; max_replicas = 3 }
      ~service:(small_l1 4) (corpus ())
  in
  let r = Fleet.run fleet (spec_exn "open:n=40,rate=1500,seed=3") in
  Alcotest.(check int) "total = served + rejected + dropped" r.Fleet.total
    (r.Fleet.served + r.Fleet.rejected + r.Fleet.dropped);
  Alcotest.(check int) "served = sum of replica serves" r.Fleet.served
    (List.fold_left (fun acc s -> acc + s.Fleet.rs_served) 0 r.Fleet.per_replica);
  Alcotest.(check int) "batches = sum of replica batches" r.Fleet.batches
    (List.fold_left (fun acc s -> acc + s.Fleet.rs_batches) 0 r.Fleet.per_replica)

let test_fleet_matches_reference_decoder () =
  (* Every image a replica serves must equal the reference decoder's
     output for the request's (possibly degraded) target — caching,
     spilling and the L2 transfer path change timing, never pixels. *)
  let streams = corpus () in
  let fleet =
    Fleet.create
      ~config:{ Fleet.default_config with Fleet.l2_capacity = 32 }
      ~service:(small_l1 4) streams
  in
  let checked = ref 0 in
  let report =
    Fleet.run
      ~on_complete:(fun _replica rq img ->
        let data = streams.(rq.Serve.Request.stream) in
        let reference =
          match rq.Serve.Request.target with
          | Serve.Request.Full -> Jpeg2000.Decoder.decode data
          | Serve.Request.Region { rx; ry; rw; rh } ->
            Jpeg2000.Decoder.decode_region ~x:rx ~y:ry ~w:rw ~h:rh data
          | Serve.Request.Reduced { discard } ->
            Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data
        in
        incr checked;
        if not (Jpeg2000.Image.equal img reference) then
          Alcotest.failf "request %d diverges from the reference decoder"
            rq.Serve.Request.id)
      fleet
      (spec_exn "open:n=30,rate=600,seed=21")
  in
  Alcotest.(check int) "all served requests checked" report.Fleet.served !checked

let test_fleet_l2_shares_decodes () =
  (* A 2-tile L1 cannot hold a 64x64 stream's four tiles, so repeat
     requests thrash the L1 — with the shared tier enabled they must
     come back as L2 hits, and the combined hit ratio must beat the
     L1-only baseline. *)
  let combined (r : Fleet.report) =
    let lookups = r.Fleet.l1.Fleet.hits + r.Fleet.l1.Fleet.misses in
    let hits =
      r.Fleet.l1.Fleet.hits
      +
      match r.Fleet.l2 with
      | Some l -> l.Fleet.l2_tier.Fleet.hits
      | None -> 0
    in
    float_of_int hits /. float_of_int (max 1 lookups)
  in
  let run l2 =
    let config =
      { Fleet.default_config with Fleet.replicas = 2; min_replicas = 2; max_replicas = 2; l2_capacity = l2 }
    in
    Fleet.run
      (Fleet.create ~config ~service:(small_l1 2) (corpus ()))
      (spec_exn "open:n=24,rate=800,seed=5")
  in
  let bare = run 0 and warm = run 64 in
  Alcotest.(check bool) "tier disabled" true (bare.Fleet.l2 = None);
  (match warm.Fleet.l2 with
  | None -> Alcotest.fail "tier enabled but unreported"
  | Some l ->
    Alcotest.(check bool) "L2 hits" true (l.Fleet.l2_tier.Fleet.hits > 0);
    Alcotest.(check int) "every hit is a priced transfer"
      l.Fleet.l2_tier.Fleet.hits l.Fleet.l2_transfers);
  Alcotest.(check bool) "combined ratio beats L1-only" true
    (combined warm > combined bare)

let test_fleet_autoscales_under_overload () =
  let config =
    {
      Fleet.default_config with
      Fleet.replicas = 1;
      min_replicas = 1;
      max_replicas = 4;
      l2_capacity = 32;
      interval_ps = 2_000_000_000;
      warmup_ps = 5_000_000_000;
    }
  in
  let service =
    {
      Serve.Service.default_config with
      Serve.Service.cache_capacity = 4;
      queue_capacity = 8;
    }
  in
  let fleet = Fleet.create ~config ~service (corpus ()) in
  let r = Fleet.run fleet (spec_exn "open:n=64,rate=6000,seed=9,deadline=5") in
  Alcotest.(check bool) "scaled up" true (r.Fleet.scale_ups >= 1);
  Alcotest.(check bool) "peak grew" true (r.Fleet.peak_replicas > 1);
  Alcotest.(check int) "one event per decision"
    (r.Fleet.scale_ups + r.Fleet.scale_downs)
    (List.length r.Fleet.scale_events);
  Alcotest.(check bool) "bounded by max" true (r.Fleet.peak_replicas <= 4)

let test_fleet_spill_policy () =
  (* One stream, so every request hashes to one owner: with a 2-deep
     queue and near-simultaneous arrivals the owner saturates at
     once. Spill must shed onto the other replica; without it the
     front end can only refuse. *)
  let one_stream = Array.sub (corpus ()) 0 1 in
  let service =
    {
      Serve.Service.default_config with
      Serve.Service.queue_capacity = 2;
      overload = Serve.Service.Reject;
      cache_capacity = 4;
    }
  in
  let run spill =
    let config =
      { Fleet.default_config with Fleet.replicas = 2; min_replicas = 2; max_replicas = 2; spill }
    in
    Fleet.run
      (Fleet.create ~config ~service one_stream)
      (spec_exn "open:n=24,rate=100000,seed=3")
  in
  let with_spill = run true and without = run false in
  Alcotest.(check bool) "spill fires" true (with_spill.Fleet.spilled > 0);
  Alcotest.(check int) "no spill when disabled" 0 without.Fleet.spilled;
  Alcotest.(check bool) "disabled spill refuses instead" true
    (without.Fleet.rejected > with_spill.Fleet.rejected)

let test_fleet_config_errors () =
  let check_error spec want =
    match Fleet.parse_config spec with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" spec
    | Error e -> Alcotest.(check string) spec want e
  in
  check_error "replicas=0" "replicas=0 must be >= 1";
  check_error "replicas=2,min=5" "min=5 must be <= replicas=2";
  check_error "up=1.5" "up=1.5 must be in [0, 1]";
  check_error "up=0.2,down=0.4" "down=0.4 must be <= up=0.2";
  check_error "bogus=1" "unknown fleet key \"bogus\"";
  check_error "interval=0" "interval=0 must be > 0"

let test_fleet_config_roundtrip () =
  match Fleet.parse_config (Fleet.config_to_string Fleet.default_config) with
  | Error e -> Alcotest.failf "canonical form failed to parse: %s" e
  | Ok c ->
    Alcotest.(check bool) "round-trips to the same config" true
      (c = Fleet.default_config)

(* -- what the fleet serves through the shared engine ------------------- *)

let four_stream_corpus () =
  Array.init 4 (fun i ->
      Models.Workload.codestream ~width:64 ~height:64 ~seed:(2008 + i)
        Jpeg2000.Codestream.Lossless)

let four_replicas =
  { Fleet.default_config with Fleet.replicas = 4; min_replicas = 4; max_replicas = 4; l2_capacity = 32 }

let with_ingest s service =
  match Faults.Ingest.parse_spec s with
  | Ok ingest -> { (service : Serve.Service.config) with ingest = Some ingest }
  | Error e -> Alcotest.failf "bad ingest spec: %s" e

let reference_image streams (rq : Serve.Request.t) =
  let data = streams.(rq.Serve.Request.stream) in
  match rq.Serve.Request.target with
  | Serve.Request.Full -> Jpeg2000.Decoder.decode data
  | Serve.Request.Region { rx; ry; rw; rh } ->
    Jpeg2000.Decoder.decode_region ~x:rx ~y:ry ~w:rw ~h:rh data
  | Serve.Request.Reduced { discard } ->
    Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data

(* Runs a 4-replica fleet at jobs 1, again, and at jobs 2. Every
   served image must equal the reference decoder's, every flush must
   be decode_robust of a prefix of its own stream, no request may end
   twice, and the three reports must be byte-identical. Returns the
   report and how many flushes it served. *)
let checked_fleet_run ~service spec =
  let streams = four_stream_corpus () in
  let run jobs =
    let ended = Hashtbl.create 64 and flushes = ref 0 in
    let end_once (rq : Serve.Request.t) =
      if Hashtbl.mem ended rq.Serve.Request.id then
        Alcotest.failf "request %d ended twice" rq.Serve.Request.id;
      Hashtbl.add ended rq.Serve.Request.id ()
    in
    let report =
      Par.Pool.with_jobs jobs (fun pool ->
          Fleet.run ~pool
            ~on_complete:(fun _ rq img ->
              end_once rq;
              if not (Jpeg2000.Image.equal img (reference_image streams rq)) then
                Alcotest.failf "request %d diverges from the reference decoder"
                  rq.Serve.Request.id)
            ~on_flush:(fun _ rq ~prefix img ->
              end_once rq;
              incr flushes;
              let data = streams.(rq.Serve.Request.stream) in
              let n = String.length prefix in
              if n > String.length data || String.sub data 0 n <> prefix then
                Alcotest.failf "request %d flushed bytes not a prefix of its stream"
                  rq.Serve.Request.id;
              match Jpeg2000.Decoder.decode_robust prefix with
              | Ok (want, _) ->
                if not (Jpeg2000.Image.equal img want) then
                  Alcotest.failf "request %d flush diverges from decode_robust"
                    rq.Serve.Request.id
              | Error _ -> Alcotest.fail "flushed prefix did not robust-decode")
            (Fleet.create ~config:four_replicas ~service streams)
            (spec_exn spec))
    in
    Alcotest.(check int) "every request ends exactly once" report.Fleet.total
      (report.Fleet.served + report.Fleet.rejected + report.Fleet.dropped);
    Alcotest.(check int) "every served request was observed" report.Fleet.served
      (Hashtbl.length ended);
    (report, !flushes)
  in
  let r, flushes = run 1 in
  Alcotest.(check string) "rerun" (report_string r) (report_string (fst (run 1)));
  Alcotest.(check string) "jobs=2" (report_string r) (report_string (fst (run 2)));
  (r, flushes)

let test_fleet_serves_faulted_ingest () =
  let r, flushes =
    checked_fleet_run
      ~service:(with_ingest "chunk=256,loss=0.05,stall=0.2,stall_us=2000" (small_l1 4))
      "open:n=40,rate=1200,seed=7,deadline=6"
  in
  match r.Fleet.ingest with
  | None -> Alcotest.fail "report lacks ingest stats"
  | Some i ->
    Alcotest.(check bool) "chunks lost" true (i.Serve.Service.ing_chunks_lost > 0);
    Alcotest.(check bool) "flushes happened" true (flushes > 0);
    Alcotest.(check int) "flush count matches" flushes i.Serve.Service.ing_flushed

let test_fleet_serves_closed_loop () =
  let r, _ =
    checked_fleet_run ~service:(small_l1 4) "closed:n=40,clients=6,think=1,seed=3"
  in
  Alcotest.(check int) "all issued" 40 r.Fleet.total;
  Alcotest.(check bool) "load spread over replicas" true
    (List.length (List.filter (fun s -> s.Fleet.rs_served > 0) r.Fleet.per_replica)
    > 1)

(* -- one engine -------------------------------------------------------- *)

(* [Serve.Service.run] is the one-replica, no-L2 case of the fleet
   engine: on any spec the two must agree on every field the reports
   share, pixels digest and ingest block included. *)
let prop_one_replica_fleet_is_serve =
  let gen =
    QCheck.Gen.(
      let* closed = bool and* seed = int_bound 10_000 and* n = int_range 8 30 in
      let* shape =
        if closed then
          map2 (Printf.sprintf "closed:clients=%d,think=%d") (int_range 1 4)
            (int_bound 2)
        else map (Printf.sprintf "open:rate=%d") (int_range 300 6000)
      in
      let* deadline = int_range 3 20 in
      let* policy = oneofl [ "reject"; "drop-oldest"; "degrade" ] in
      let* queue = int_range 1 8 and* cache = int_bound 8 in
      let* batch = int_range 1 4 in
      let* ingest =
        oneofl [ None; Some "chunk=256,loss=0.05,stall=0.2,stall_us=2000" ]
      in
      return
        ( Printf.sprintf "%s,n=%d,seed=%d,deadline=%d" shape n seed deadline,
          policy, queue, cache, batch, ingest ))
  in
  let print (spec, policy, queue, cache, batch, ingest) =
    Printf.sprintf "%s policy=%s queue=%d cache=%d batch=%d ingest=%s" spec
      policy queue cache batch (Option.value ingest ~default:"-")
  in
  QCheck.Test.make ~name:"one-replica fleet reports what serve reports"
    ~count:30 (QCheck.make ~print gen)
    (fun (spec, policy, queue, cache, batch, ingest) ->
      let overload =
        match Serve.Service.overload_of_string policy with
        | Ok o -> o
        | Error e -> failwith e
      in
      let service =
        {
          Serve.Service.queue_capacity = queue;
          overload;
          cache_capacity = cache;
          max_batch = batch;
          ingest = None;
        }
      in
      let service =
        match ingest with Some i -> with_ingest i service | None -> service
      in
      let streams = corpus () and spec = spec_exn spec in
      let s =
        Serve.Service.run (Serve.Service.create ~config:service streams) spec
      in
      let config =
        { Fleet.default_config with Fleet.replicas = 1; min_replicas = 1; max_replicas = 1; l2_capacity = 0 }
      in
      let f = Fleet.run (Fleet.create ~config ~service streams) spec in
      let open Serve.Service in
      s.workload = f.Fleet.workload
      && s.streams = f.Fleet.streams
      && s.policy = f.Fleet.policy
      && s.queue_capacity = f.Fleet.queue_capacity
      && s.cache_capacity = f.Fleet.l1_capacity
      && s.max_batch = f.Fleet.max_batch
      && s.total = f.Fleet.total
      && s.served = f.Fleet.served
      && s.rejected = f.Fleet.rejected
      && s.dropped = f.Fleet.dropped
      && s.degraded = f.Fleet.degraded
      && s.batches = f.Fleet.batches
      && s.coalesced = f.Fleet.coalesced
      && s.concealed_blocks = f.Fleet.concealed_blocks
      && s.makespan_ms = f.Fleet.makespan_ms
      && s.throughput_rps = f.Fleet.throughput_rps
      && s.latency = f.Fleet.latency
      && s.slo_misses = f.Fleet.slo_misses
      && s.slo_miss_rate = f.Fleet.slo_miss_rate
      && s.cache_hits = f.Fleet.l1.Fleet.hits
      && s.cache_misses = f.Fleet.l1.Fleet.misses
      && s.cache_evictions = f.Fleet.l1.Fleet.evictions
      && s.cache_hit_rate = f.Fleet.l1.Fleet.hit_rate
      && s.ingest = f.Fleet.ingest
      && s.pixels_digest = f.Fleet.pixels_digest)

(* -- spec grammars ------------------------------------------------------ *)

(* Hostile values: NaN, infinities, overflowing durations and ints,
   empty values and repeated '='; plus ordinary ones so that some
   mutated specs still parse. *)
let hostile_value =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            "nan"; "-nan"; "inf"; "-inf"; "infinity"; "1e300"; "-1e300";
            "1e-300"; "4611686018427387903"; "-4611686018427387904";
            "99999999999999999999"; ""; "="; "1=2"; "=1"; "0x10"; "1e15";
            "1e6"; "1e9"; "1e12"; "1e-12"; "1e-9"; "0"; "-0"; "-1";
            "0.1"; "0.333333333333"; "1.5"; "3";
          ];
        map string_of_int (int_range 0 40);
        map (Printf.sprintf "%g") (float_bound_inclusive 1.0);
        map (Printf.sprintf "%.17g") (float_range 0.0 100.0);
      ])

let fuzz_keys =
  [
    "n"; "seed"; "deadline"; "region"; "reduced"; "rate"; "clients"; "think";
    "chunk"; "gap_us"; "loss"; "dup"; "reorder"; "window"; "stall";
    "stall_us"; "replicas"; "min"; "max"; "vnodes"; "l2"; "l2_us"; "spill";
    "up"; "down"; "slo"; "interval"; "warmup";
  ]

let fuzz_spec =
  QCheck.Gen.(
    oneof
      [
        (* raw noise over the grammar's alphabet *)
        (let alphabet = "=,:.-+eEinafx0123" in
         string_size
           ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
           (int_bound 40));
        (* key=value fields over every grammar's keys *)
        map (String.concat ",")
          (list_size (int_bound 6)
             (map2 (fun k v -> k ^ "=" ^ v) (oneofl fuzz_keys) hostile_value));
      ])

let prop_spec_grammars =
  let corpus = lazy (Array.sub (corpus ()) 0 1) in
  QCheck.Test.make
    ~name:"spec grammars never raise, round-trip and are accepted" ~count:400
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         map2 ( ^ ) (oneofl [ ""; "open:"; "closed:"; "poisson:" ]) fuzz_spec))
    (fun s ->
      let body =
        match String.index_opt s ':' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      ignore (Spec.parse_pairs body);
      (match Serve.Request.parse_spec s with
      | Error _ -> ()
      | Ok spec ->
        if Serve.Request.parse_spec (Serve.Request.spec_to_string spec) <> Ok spec
        then QCheck.Test.fail_reportf "workload %S does not round-trip" s;
        (* a few of its requests must run and account sanely *)
        let r =
          Serve.Service.run
            (Serve.Service.create (Lazy.force corpus))
            { spec with Serve.Request.n = Stdlib.min spec.Serve.Request.n 3 }
        in
        let open Serve.Service in
        if
          r.total <> Stdlib.min spec.Serve.Request.n 3
          || r.served + r.rejected + r.dropped <> r.total
          || not (r.latency.max_ms >= 0.0 && r.makespan_ms >= 0.0)
        then QCheck.Test.fail_reportf "workload %S runs to garbage" s);
      (match Faults.Ingest.parse_spec body with
      | Error _ -> ()
      | Ok ingest ->
        if Faults.Ingest.parse_spec (Faults.Ingest.spec_to_string ingest) <> Ok ingest
        then QCheck.Test.fail_reportf "ingest %S does not round-trip" body;
        ignore
          (Serve.Service.create
             ~config:{ Serve.Service.default_config with Serve.Service.ingest = Some ingest }
             (Lazy.force corpus)));
      (match Fleet.parse_config body with
      | Error _ -> ()
      | Ok config ->
        if Fleet.parse_config (Fleet.config_to_string config) <> Ok config then
          QCheck.Test.fail_reportf "fleet %S does not round-trip" body;
        ignore (Fleet.create ~config (Lazy.force corpus)));
      true)

let test_fleet_golden_pixels_digest () =
  (* The README fleet quickstart, built as [osss_sim fleet] builds it:
     the default 128-px lossless corpus, seeds 2008, 2009, ... *)
  let corpus =
    Array.init 4 (fun i ->
        Models.Workload.codestream ~seed:(2008 + i) Jpeg2000.Codestream.Lossless)
  in
  let config =
    match Fleet.parse_config "replicas=4,l2=64" with
    | Ok c -> c
    | Error e -> Alcotest.failf "bad fleet spec: %s" e
  in
  let fleet = Fleet.create ~config ~service:(small_l1 8) corpus in
  let r = Fleet.run fleet (spec_exn "open:n=64,rate=1500,seed=11") in
  Alcotest.(check string) "fleet quickstart" "fd27cf6fe472092a"
    r.Fleet.pixels_digest

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "empty and validation" `Quick
            test_ring_empty_and_validation;
          Alcotest.test_case "members dedup" `Quick test_ring_members_dedup;
          Alcotest.test_case "owner and successors" `Quick
            test_ring_owner_and_successors;
          Alcotest.test_case "remap fraction ~1/n" `Quick
            test_ring_remap_fraction;
          qc prop_ring_remove_remaps_only_removed;
          qc prop_ring_add_remaps_only_to_new;
        ] );
      ( "tier",
        [
          Alcotest.test_case "validation" `Quick test_tier_validation;
          Alcotest.test_case "transfer accounting" `Quick
            test_tier_transfer_accounting;
          Alcotest.test_case "invalidation never stale" `Quick
            test_tier_invalidation_never_stale;
          qc prop_tier_invalidate_collisions;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "rerun and jobs invariant" `Quick
            test_fleet_rerun_and_jobs_invariant;
          Alcotest.test_case "counters balance" `Quick
            test_fleet_counters_balance;
          Alcotest.test_case "matches reference decoder" `Quick
            test_fleet_matches_reference_decoder;
          Alcotest.test_case "L2 shares decodes" `Quick
            test_fleet_l2_shares_decodes;
          Alcotest.test_case "autoscales under overload" `Quick
            test_fleet_autoscales_under_overload;
          Alcotest.test_case "spill policy" `Quick test_fleet_spill_policy;
          Alcotest.test_case "config errors" `Quick test_fleet_config_errors;
          Alcotest.test_case "config roundtrip" `Quick
            test_fleet_config_roundtrip;
          Alcotest.test_case "serves faulted ingest" `Quick
            test_fleet_serves_faulted_ingest;
          Alcotest.test_case "serves closed loop" `Quick
            test_fleet_serves_closed_loop;
          Alcotest.test_case "golden pixels digest" `Quick
            test_fleet_golden_pixels_digest;
          qc prop_one_replica_fleet_is_serve;
          qc prop_spec_grammars;
        ] );
    ]
