(* paper_sweep: all nine decoder versions of the paper (Table 1), in
   both modes, with the functional payload on, fanned out over the
   pool one version run per task — what [Models.Experiment.run_many]
   does for one mode, here for both modes in one fan-out so each run
   can be timed. One op is one version run. The input is the paper's
   fixed 16-tile workload: the seed is recorded but selects nothing.

   The first sweep is the check pass, through [run_many] itself: every
   run must decode bit-exactly ([functional_ok = Some true]) and every
   later run must reproduce its simulated times. *)

open Models

let modes = [ Jpeg2000.Codestream.Lossless; Jpeg2000.Codestream.Lossy ]

let ops =
  Array.of_list
    (List.concat_map (fun m -> List.map (fun v -> (v, m)) Experiment.all_versions) modes)

let sweep pool f = Par.Pool.map ~chunk:1 pool ops (fun (v, m) -> Util.time (fun () -> f v m))

let same (a : Outcome.t) (b : Outcome.t) =
  a.Outcome.functional_ok = Some true
  && b.Outcome.functional_ok = Some true
  && Float.equal a.Outcome.decode_ms b.Outcome.decode_ms
  && Float.equal a.Outcome.idwt_ms b.Outcome.idwt_ms

let run ~seed:_ ~seconds ~jobs ~trace bag =
  let (pool, payloads), setup_s =
    Util.setup_median
      ~dispose:(fun (pool, _) -> Par.Pool.shutdown pool)
      (fun () ->
        let pool = Par.Pool.of_jobs jobs in
        (pool, List.map (fun m -> Workload.codestream m) modes))
  in
  Util.put bag "setup_s" setup_s;
  let reference =
    Array.concat (List.map (fun m -> Array.of_list (Experiment.run_all ~pool m)) modes)
  in
  let checks = ref [] in
  let attempted = ref (Array.length reference) in
  let failed =
    ref
      (Array.fold_left
         (fun a (o : Outcome.t) -> if o.Outcome.functional_ok = Some true then a else a + 1)
         0 reference)
  in
  let check outcomes =
    attempted := !attempted + Array.length outcomes;
    Array.iteri (fun i (o, _) -> if not (same reference.(i) o) then incr failed) outcomes
  in
  let walls = ref [] and samples = Array.make (Array.length ops) [] in
  let gc0 = Util.gc_snapshot () in
  Util.for_seconds (if trace then seconds /. 3.0 else seconds) (fun () ->
      let out, wall = Util.time (fun () -> sweep pool (fun v m -> Experiment.run v m)) in
      check out;
      walls := wall :: !walls;
      Array.iteri (fun i (_, dt) -> samples.(i) <- dt :: samples.(i)) out;
      true);
  let gc = Util.gc_delta gc0 (Util.gc_snapshot ()) in
  let wall = Util.median !walls in
  let n = float_of_int (Array.length ops) in
  let h = (Jpeg2000.Codestream.parse (List.hd payloads)).Jpeg2000.Codestream.header in
  let pixels = float_of_int (h.Jpeg2000.Codestream.width * h.Jpeg2000.Codestream.height) in
  let rates = List.map (fun w -> n /. w) !walls in
  let ms = List.concat_map (List.map (fun s -> s *. 1000.0)) (Array.to_list samples) in
  Util.put bag "host_ops_per_s" (Util.median rates);
  Util.put bag "host_mpix_per_s" (Util.median rates *. pixels /. 1e6);
  Util.put bag "host_op_ms_p50" (Util.quantile 0.5 ms);
  Util.put bag "host_op_ms_p90" (Util.quantile 0.9 ms);
  Printf.eprintf "paper_sweep: %d sweeps, %d ops timed, %d beyond p90\n"
    (List.length !walls) (List.length ms) (Util.beyond 0.9 (List.length ms));
  if trace then begin
    let ops_timed = float_of_int (List.length ms) in
    Util.put bag "gc.minor_mb_per_op" (gc.Util.minor_mb /. ops_timed);
    Util.put bag "gc.promoted_mb_per_op" (gc.Util.promoted_mb /. ops_timed);
    Util.puti bag "gc.major_collections" gc.Util.majors;
    (* Virtual-clock results (Table 1 and the paper's relations). *)
    let lossless = Array.to_list (Array.sub reference 0 9)
    and lossy = Array.to_list (Array.sub reference 9 9) in
    let best = List.fold_left (fun a o -> min a o.Outcome.decode_ms) infinity lossless in
    Util.put bag "sim_decode_ms_best" best;
    Util.put bag "sim_speedup" ((List.hd lossless).Outcome.decode_ms /. best);
    let rel = Experiment.paper_relations lossless lossy in
    Util.put bag "sim_claims_held"
      (float_of_int (List.length (List.filter (fun r -> r.Experiment.holds) rel))
      /. float_of_int (List.length rel));
    (* Traced sweeps: a sink in every task, and one on this domain for
       the fan-out itself. Untraced, traced and jobs-1 sweeps run in two
       mirrored rounds, so drift hits the three alike. *)
    let traced_sweep () =
      Telemetry.Sink.with_sink (fun () ->
          Util.time (fun () ->
              sweep pool (fun v m ->
                  let sink, o = Telemetry.Sink.with_sink (fun () -> Experiment.run v m) in
                  (o, Telemetry.Sink.report sink))))
    in
    let timed_sweep pool () =
      let out, wall = Util.time (fun () -> sweep pool (fun v m -> Experiment.run v m)) in
      Array.iteri
        (fun i (o, _) -> if not (same reference.(i) o) then checks := "untraced re-run differs" :: !checks)
        out;
      wall
    in
    let p1 = timed_sweep pool () in
    let main_sink, (traced, t1) = traced_sweep () in
    let s1 = timed_sweep Par.Pool.sequential () in
    let s2 = timed_sweep Par.Pool.sequential () in
    let _, (_, t2) = traced_sweep () in
    let p2 = timed_sweep pool () in
    let reports = Telemetry.Sink.report main_sink :: Array.to_list (Array.map (fun ((_, r), _) -> r) traced) in
    Array.iteri
      (fun i ((o, _), _) ->
        if not (same reference.(i) o) then checks := "traced run differs" :: !checks)
      traced;
    Util.put bag "telemetry.overhead" ((t1 +. t2) /. (p1 +. p2));
    Util.put bag "par.speedup" ((s1 +. s2) /. (p1 +. p2));
    let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
    let counters ~prefix ~suffix r =
      List.fold_left
        (fun a (k, v) ->
          if String.starts_with ~prefix k && String.ends_with ~suffix k then a + v else a)
        0 r.Telemetry.Report.counters
    in
    let gauge k r = Option.value ~default:0 (Telemetry.Report.gauge r k) in
    Layers.put_par bag reports;
    let wakeups = sum (counters ~prefix:"process." ~suffix:".wakeups") in
    Util.puti bag "sim.wakeups" wakeups;
    Util.puti bag "sim.time_advances" (sum (gauge "kernel.time_advances"));
    Util.puti bag "sim.delta_cycles" (sum (gauge "kernel.delta_cycles"));
    let version_ms = Array.to_list (Array.map (fun s -> Util.median s *. 1000.0) samples) in
    Util.put bag "sim.host_ns_per_wakeup" (Util.sum version_ms *. 1e6 /. float_of_int wakeups);
    Util.puti bag "osss.channel_words" (sum (counters ~prefix:"channel." ~suffix:".words"));
    Util.puti bag "osss.so_calls" (sum (counters ~prefix:"so." ~suffix:".calls"));
    Util.puti bag "osss.context_switches"
      (sum (counters ~prefix:"processor." ~suffix:".context_switches"));
    Util.put bag "osss.lock_wait_ms"
      (float_of_int
         (sum (fun r ->
              List.fold_left
                (fun a (k, d) ->
                  if String.starts_with ~prefix:"lock." k && String.ends_with ~suffix:".wait_ps" k
                  then a + d.Telemetry.Report.sum
                  else a)
                0 r.Telemetry.Report.dists))
      /. 1e9);
    (* Closure: version runs against the fan-out's capacity, and each
       run's payload (encode + reference decode + staged decode)
       against the simulation around it. *)
    let times = List.filter_map Fun.id (Layers.trace_images ~reps:3 payloads) in
    if List.length times <> List.length payloads then checks := "staged decode differs" :: !checks;
    Layers.put_jpeg2000 bag times;
    let encode = snd (Util.time (fun () -> List.iter (fun m -> ignore (Workload.codestream m)) modes)) in
    let payload_ms =
      ((encode /. 2.0) +. (2.0 *. Util.mean (List.map (fun t -> t.Layers.it_decode) times))) *. 1000.0
    in
    let mean_ms = Util.mean version_ms in
    let busy = Util.sum version_ms /. (float_of_int jobs *. wall *. 1000.0) in
    Util.put bag "models.version_ms_max" (List.fold_left max 0.0 version_ms);
    Util.put bag "models.version_ms_mean" mean_ms;
    Util.put bag "models.payload_est_ms" payload_ms;
    Util.put bag "models.residue_share" (1.0 -. (payload_ms /. mean_ms));
    Util.put bag "models.pool_idle_share" (1.0 -. busy);
    Printf.eprintf
      "closure paper_sweep: %d version runs, %.1f ms of work over %d domains x %.1f ms sweep \
       (pool idle %.1f%%); per run %.1f ms = payload est %.1f ms (encode + 2 decodes) + \
       residue (sim kernel, osss, models) %.1f ms (%.1f%%)\n"
      (Array.length ops) (Util.sum version_ms) jobs (wall *. 1000.0)
      (100.0 *. (1.0 -. busy)) mean_ms payload_ms (mean_ms -. payload_ms)
      (100.0 *. (1.0 -. (payload_ms /. mean_ms)))
  end;
  Util.put bag "peak_rss_mb" (Util.peak_rss_mb ());
  Util.put bag "ok_share" (1.0 -. (float_of_int !failed /. float_of_int !attempted));
  Par.Pool.shutdown pool;
  { Util.jobs; attempted = !attempted; failed = !failed; checks = !checks }
