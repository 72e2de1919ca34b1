(* serve_stream: [Serve.Service.run] as a closed loop of 4 virtual
   clients (2 ms mean think time) sending 1000 requests in the default
   mix over 16 lossy 128x128 streams, with a 512-tile L1 (half of the
   1024 (stream, tile, level) keys the mix touches, so about a fifth of
   the tile needs still decode) and faulted chunked ingest: 1 KiB
   chunks, 0.1 % chunk loss and 1 % head-of-line stalls of up to 3 ms.
   Sixteen streams rather than eight average out more of how
   differently each seed's images compress.
   Request bytes arrive through [Serve.Ingest] (the resumable
   [Jpeg2000.Stream] parser fed by a [Faults.Ingest] schedule) instead
   of being read from a cache, and a request whose bytes stall past its
   deadline is flushed through [Decoder.decode_robust]: the second
   serving engine, with the closed loop and ingest that the fleet
   lacks. *)

let streams = 16
let requests = 1000

let ingest =
  match Faults.Ingest.parse_spec "chunk=1024,loss=0.001,stall=0.01,stall_us=3000" with
  | Ok s -> s
  | Error e -> failwith e

let config =
  { Serve.Service.default_config with Serve.Service.cache_capacity = 512; ingest = Some ingest }

let spec seed =
  match
    Serve.Request.parse_spec
      (Printf.sprintf "closed:n=%d,clients=4,think=2,seed=%d" requests seed)
  with
  | Ok s -> s
  | Error e -> failwith e

let summary (r : Serve.Service.report) =
  {
    Serving.report = r;
    json = Telemetry.Json.to_string (Serve.Service.report_to_json r);
    pixels_digest = r.Serve.Service.pixels_digest;
    total = r.Serve.Service.total;
    served = r.Serve.Service.served;
    sim_p50_ms = r.Serve.Service.latency.Serve.Service.p50_ms;
    sim_p99_ms = r.Serve.Service.latency.Serve.Service.p99_ms;
    makespan_ms = r.Serve.Service.makespan_ms;
    slo_misses = r.Serve.Service.slo_misses;
    slo_miss_rate = r.Serve.Service.slo_miss_rate;
    batches = r.Serve.Service.batches;
    coalesced = r.Serve.Service.coalesced;
    l1_hit_rate = r.Serve.Service.cache_hit_rate;
    decodes = r.Serve.Service.cache_misses;
  }

(* The per-request ingest seed, as the service derives it; the traced
   run checks the replay against the run's own ingest spans. *)
let ingest_seed (spec : Serve.Request.spec) (r : Serve.Request.t) =
  Int64.to_int
    (Int64.logand
       (Faults.Rng.hash64 (Int64.of_int spec.Serve.Request.seed) (Int64.of_int r.Serve.Request.id))
       Int64.max_int)

let run ~seed ~seconds ~jobs ~trace bag =
  let rng = Util.rng seed 3 in
  let stream_seeds = List.init streams (fun _ -> Random.State.bits rng) in
  let spec = spec (Random.State.bits rng land 0xFFFFFF) in
  let (pool, corpus, service), setup_s =
    Util.setup_median
      ~dispose:(fun (pool, _, _) -> Par.Pool.shutdown pool)
      (fun () ->
        let pool = Par.Pool.of_jobs jobs in
        let corpus =
          Array.of_list
            (List.map
               (fun seed -> Models.Workload.codestream ~seed Jpeg2000.Codestream.Lossy)
               stream_seeds)
        in
        (pool, corpus, Serve.Service.create ~config corpus))
  in
  Util.put bag "setup_s" setup_s;
  let run ~pool ~on_image =
    summary
      (Serve.Service.run ~pool
         ~on_complete:(fun req img -> on_image req None img)
         ~on_flush:(fun req ~prefix img -> on_image req (Some prefix) img)
         service spec)
  in
  let m =
    Serving.measure
      ~seconds:(if trace then seconds /. 3.0 else seconds)
      ~corpus run bag
  in
  let checks =
    if not trace then []
    else begin
      let r = m.Serving.first.Serving.report in
      let ing = Option.get r.Serve.Service.ingest in
      Util.puti bag "serve.ingest_flushed" ing.Serve.Service.ing_flushed;
      Util.puti bag "serve.ingest_flush_failed" ing.Serve.Service.ing_flush_failed;
      Util.puti bag "serve.ingest_chunks_lost" ing.Serve.Service.ing_chunks_lost;
      (* Stream.feed over each stream cut to the ingest chunk size. *)
      let bytes = Array.fold_left (fun a d -> a + String.length d) 0 corpus in
      let reps = 20 in
      let (), feed =
        Util.time (fun () ->
            for _ = 1 to reps do
              Array.iter
                (fun d ->
                  let st = Jpeg2000.Stream.create () in
                  let chunk = ingest.Faults.Ingest.chunk_bytes in
                  let rec go off =
                    if off < String.length d then begin
                      ignore
                        (Jpeg2000.Stream.feed st
                           (String.sub d off (min chunk (String.length d - off))));
                      go (off + chunk)
                    end
                  in
                  go 0)
                corpus
            done)
      in
      Util.put bag "jpeg2000.stream_feed_mb_s"
        (float_of_int (bytes * reps) /. feed /. 1e6);
      let replay_checks = ref [] in
      let extra (served : Layers.served list) events =
        let replayed = ref [] in
        let (), analyse =
          Util.time (fun () ->
              List.iter
                (fun { Layers.req; _ } ->
                  let d =
                    Serve.Ingest.analyse ~seed:(ingest_seed spec req) ingest
                      ~start_ps:req.Serve.Request.arrival_ps
                      corpus.(req.Serve.Request.stream)
                  in
                  replayed :=
                    (req.Serve.Request.id, (Serve.Ingest.delivery d).Faults.Ingest.lost)
                    :: !replayed)
                served)
        in
        (* The replay must see the fault schedules the run saw: each
           request's lost chunks must equal those on the "ingest" span
           the traced run emitted for it. *)
        let run_lost = Hashtbl.create 1024 in
        List.iter
          (fun (e : Telemetry.Event.t) ->
            match (List.assoc_opt "id" e.args, List.assoc_opt "lost" e.args) with
            | Some (Telemetry.Event.Int id), Some (Telemetry.Event.Int l) ->
              Hashtbl.replace run_lost id l
            | _ -> ())
          (Telemetry.Event.spans ~name:"ingest" events);
        let differ =
          List.filter (fun (id, l) -> Hashtbl.find_opt run_lost id <> Some l) !replayed
        in
        Printf.eprintf
          "ingest replay: %d requests, %d chunks lost (the report: %d), %d differ from the run\n"
          (List.length !replayed)
          (List.fold_left (fun a (_, l) -> a + l) 0 !replayed)
          ing.Serve.Service.ing_chunks_lost (List.length differ);
        if differ <> [] then
          replay_checks :=
            Printf.sprintf
              "ingest replay: %d requests lose other chunks than in the run (seed derivation drifted?)"
              (List.length differ)
            :: !replay_checks;
        let prefixes = List.filter_map (fun s -> s.Layers.flushed_prefix) served in
        let (), robust =
          Util.time (fun () ->
              List.iter (fun p -> ignore (Jpeg2000.Decoder.decode_robust p)) prefixes)
        in
        Util.put bag "jpeg2000.robust_ms"
          (robust *. 1000.0 /. float_of_int (max 1 (List.length prefixes)));
        [ ("serve.ingest_analyse", analyse); ("serve.flush_decode", robust) ]
      in
      let checks = Serving.trace_layers ~pool ~corpus ~service run m bag ~extra in
      checks @ !replay_checks
    end
  in
  Util.put bag "peak_rss_mb" (Util.peak_rss_mb ());
  Par.Pool.shutdown pool;
  { m.Serving.outcome with Util.checks = m.Serving.outcome.Util.checks @ checks }
