(* fleet_open: [Fleet.run] with 4 replicas behind the consistent-hash
   ring and a shared L2 that holds the whole corpus, serving an open
   loop of full-frame requests for 6 lossless 128x128 streams (16
   tiles each) at 6000 requests per simulated second, near the
   fleet's capacity, so queues form and some requests spill to a ring
   successor. Each replica's L1 holds 8 tiles, fewer than one stream,
   so every tile need is an L1 miss; the L2 holds all 96 tiles, so
   each is decoded once per run and host time goes to admission, EDF
   dispatch, the caches, assembly and the pixel digest rather than to
   decoding. Full frames only: every op then does the same work, so
   the host-time percentiles do not straddle a boundary between
   request kinds.

   The open loop runs on the simulated clock: arrivals are pre-drawn
   and every [sim_*] latency counts from the request's due time, so a
   slow host cannot make the generator late. *)

let streams = 6
let requests = 1500
let rate = 6000

let fleet_config =
  match Fleet.parse_config "replicas=4,l2=512" with
  | Ok c -> c
  | Error e -> failwith e

let service_config = { Serve.Service.default_config with Serve.Service.cache_capacity = 8 }

let spec seed =
  match
    Serve.Request.parse_spec
      (Printf.sprintf "open:n=%d,rate=%d,seed=%d,region=0,reduced=0" requests rate seed)
  with
  | Ok s -> s
  | Error e -> failwith e

let summary (r : Fleet.report) =
  let l2 = Option.get r.Fleet.l2 in
  {
    Serving.report = r;
    json = Telemetry.Json.to_string (Fleet.report_to_json r);
    pixels_digest = r.Fleet.pixels_digest;
    total = r.Fleet.total;
    served = r.Fleet.served;
    sim_p50_ms = r.Fleet.latency.Serve.Service.p50_ms;
    sim_p99_ms = r.Fleet.latency.Serve.Service.p99_ms;
    makespan_ms = r.Fleet.makespan_ms;
    slo_misses = r.Fleet.slo_misses;
    slo_miss_rate = r.Fleet.slo_miss_rate;
    batches = r.Fleet.batches;
    coalesced = r.Fleet.coalesced;
    l1_hit_rate = r.Fleet.l1.Fleet.hit_rate;
    decodes = l2.Fleet.l2_tier.Fleet.misses;
  }

let run ~seed ~seconds ~jobs ~trace bag =
  let rng = Util.rng seed 2 in
  let stream_seeds = List.init streams (fun _ -> Random.State.bits rng) in
  let spec = spec (Random.State.bits rng land 0xFFFFFF) in
  let (pool, corpus, fleet), setup_s =
    Util.setup_median
      ~dispose:(fun (pool, _, _) -> Par.Pool.shutdown pool)
      (fun () ->
        let pool = Par.Pool.of_jobs jobs in
        let corpus =
          Array.of_list
            (List.map
               (fun seed ->
                 Models.Workload.codestream ~seed Jpeg2000.Codestream.Lossless)
               stream_seeds)
        in
        (pool, corpus, Fleet.create ~config:fleet_config ~service:service_config corpus))
  in
  Util.put bag "setup_s" setup_s;
  let run ~pool ~on_image =
    summary
      (Fleet.run ~pool ~on_complete:(fun _ req img -> on_image req None img) fleet spec)
  in
  let m = Serving.measure ~seconds:(if trace then seconds /. 3.0 else seconds) ~corpus run bag in
  let checks =
    if not trace then []
    else begin
      let r = m.Serving.first.Serving.report in
      let service = Fleet.service fleet in
      let extra _served _events =
        let arrivals, generate =
          Util.time (fun () -> Serve.Service.open_arrivals service spec)
        in
        let ring =
          Fleet.Ring.create ~vnodes:fleet_config.Fleet.vnodes
            (List.init fleet_config.Fleet.replicas Fun.id)
        in
        let digests =
          Array.map Serve.Service.stream_digest (Serve.Service.streams service)
        in
        let (), route =
          Util.time (fun () ->
              Array.iter
                (fun (a : Serve.Request.t) ->
                  ignore (Fleet.Ring.owner ring digests.(a.Serve.Request.stream)))
                arrivals)
        in
        Util.put bag "fleet.route_us_per_req"
          (route *. 1e6 /. float_of_int (Array.length arrivals));
        [ ("serve.generate", generate); ("fleet.route", route) ]
      in
      let checks = Serving.trace_layers ~pool ~corpus ~service run m bag ~extra in
      let l2 = Option.get r.Fleet.l2 in
      Util.put bag "fleet.l2_hit_rate" l2.Fleet.l2_tier.Fleet.hit_rate;
      Util.puti bag "fleet.l2_transfers" l2.Fleet.l2_transfers;
      Util.puti bag "fleet.spilled" r.Fleet.spilled;
      Util.puti bag "fleet.rejected" r.Fleet.rejected;
      let busy = List.map (fun s -> s.Fleet.rs_busy_ms) r.Fleet.per_replica in
      Util.put bag "fleet.busy_skew" (List.fold_left max 0.0 busy /. Util.mean busy);
      checks
    end
  in
  Util.put bag "peak_rss_mb" (Util.peak_rss_mb ());
  Par.Pool.shutdown pool;
  { m.Serving.outcome with Util.checks = m.Serving.outcome.Util.checks @ checks }
