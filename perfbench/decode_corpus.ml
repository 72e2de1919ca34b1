(* decode_corpus: [Jpeg2000.Decoder.decode] on a seeded corpus, back to
   back (one closed-loop client), with a pool of [jobs] domains.

   The corpus mixes lossless (5/3) and lossy (9/7) coding, smooth and
   noise content, and two sizes at the paper's tile geometry (32x32
   tiles, 3 levels, 16x16 code blocks): three 128x128 images (16
   tiles) per (mode, content) pair and one 512x512 image (256 tiles)
   per pair. With 12 small and 4 large images the median op lands
   inside the small images and the 90th percentile inside the large
   ones, so neither sits on a class boundary. *)

open Jpeg2000

type item = {
  label : string;
  mode : Codestream.mode;
  data : string;
  source : Image.t;
  pixels : int;
}

let config mode =
  {
    Encoder.tile_w = 32;
    tile_h = 32;
    levels = 3;
    mode;
    base_step = 2.0;
    code_block = 16;
  }

(* (label, mode, side, noise?, image seed) *)
let specs seed =
  let rng = Util.rng seed 1 in
  let pairs =
    List.concat_map
      (fun mode -> [ (mode, false); (mode, true) ])
      [ Codestream.Lossless; Codestream.Lossy ]
  in
  let one side (mode, noise) k =
    ( Printf.sprintf "%s-%s-%d-%d" (Layers.mode_name mode)
        (if noise then "noise" else "smooth")
        side k,
      mode,
      side,
      noise,
      Random.State.bits rng )
  in
  Array.of_list
    (List.concat_map (fun p -> List.init 3 (one 128 p)) pairs
    @ List.map (fun p -> one 512 p 0) pairs)

let make pool specs =
  Par.Pool.map ~chunk:1 pool specs (fun (label, mode, side, noise, iseed) ->
      let source =
        if noise then Image.noise ~width:side ~height:side ~components:3 ~seed:iseed
        else Image.smooth ~width:side ~height:side ~components:3 ~seed:iseed
      in
      { label; mode; data = Encoder.encode (config mode) source; source; pixels = side * side })

let digest image = Serve.Service.fnv_image Serve.Service.fnv_basis image

let run ~seed ~seconds ~jobs ~trace bag =
  let specs = specs seed in
  let (pool, corpus), setup_s =
    Util.setup_median
      ~dispose:(fun (pool, _) -> Par.Pool.shutdown pool)
      (fun () ->
        let pool = Par.Pool.of_jobs jobs in
        (pool, make pool specs))
  in
  Util.put bag "setup_s" setup_s;
  (* The oracle: a jobs-1 decode of every image (fanned out across
     images, each decode itself sequential); lossless output must also
     equal the source. *)
  let reference =
    Par.Pool.map ~chunk:1 pool corpus (fun it ->
        let image = Decoder.decode it.data in
        ( digest image,
          it.mode = Codestream.Lossy || Image.equal image it.source ))
  in
  let checks = ref [] in
  Array.iteri
    (fun i (_, ok) ->
      if not ok then
        checks := ("lossless output differs from source: " ^ corpus.(i).label) :: !checks)
    reference;
  let n = Array.length corpus in
  let attempted = ref 0 and failed = ref 0 in
  let decode ?(pool = pool) i =
    let image, dt = Util.time (fun () -> Decoder.decode ~pool corpus.(i).data) in
    incr attempted;
    if not (Int64.equal (digest image) (fst reference.(i))) then incr failed;
    dt
  in
  let samples = Array.make n [] in
  let gc0 = Util.gc_snapshot () in
  (* Whole passes only, so every run decodes the same mix. *)
  Util.for_seconds (if trace then seconds /. 3.0 else seconds) (fun () ->
      for i = 0 to n - 1 do
        samples.(i) <- decode i :: samples.(i)
      done;
      true);
  let gc = Util.gc_delta gc0 (Util.gc_snapshot ()) in
  let med = Array.map Util.median samples in
  let pass_s = Array.fold_left ( +. ) 0.0 med in
  let all = List.concat (Array.to_list samples) in
  if not trace then begin
    let ms = List.map (fun s -> s *. 1000.0) all in
    Util.put bag "host_ops_per_s" (float_of_int n /. pass_s);
    Util.put bag "host_mpix_per_s"
      (float_of_int (Array.fold_left (fun a it -> a + it.pixels) 0 corpus)
      /. pass_s /. 1e6);
    Util.put bag "host_op_ms_p50" (Util.quantile 0.5 ms);
    Util.put bag "host_op_ms_p90" (Util.quantile 0.9 ms);
    Printf.eprintf "decode_corpus: %d ops, %d beyond p90, %d images per pass\n"
      (List.length ms) (Util.beyond 0.9 (List.length ms)) n
  end
  else begin
    let ops = float_of_int (List.length all) in
    Util.put bag "gc.minor_mb_per_op" (gc.Util.minor_mb /. ops);
    Util.put bag "gc.promoted_mb_per_op" (gc.Util.promoted_mb /. ops);
    Util.puti bag "gc.major_collections" gc.Util.majors;
    (* Interleaved per image: untraced (pool), traced (pool, sink
       installed), and jobs 1 — so drift hits all three alike; the
       untraced and traced decodes swap order every repetition. *)
    let reps = 4 in
    let plain = Array.make n [] and traced = Array.make n [] and j1 = Array.make n [] in
    let sink_report = ref [] in
    for r = 1 to reps do
      for i = 0 to n - 1 do
        let untraced () = plain.(i) <- decode i :: plain.(i) in
        if r mod 2 = 1 then untraced ();
        let sink, dt = Telemetry.Sink.with_sink (fun () -> decode i) in
        traced.(i) <- dt :: traced.(i);
        if r = 1 then sink_report := Telemetry.Sink.report sink :: !sink_report;
        if r mod 2 = 0 then untraced ();
        j1.(i) <- decode ~pool:Par.Pool.sequential i :: j1.(i)
      done
    done;
    let total ?(only = fun _ -> true) a =
      let acc = ref 0.0 in
      Array.iteri (fun i xs -> if only corpus.(i) then acc := !acc +. Util.median xs) a;
      !acc
    in
    Util.put bag "par.speedup" (total j1 /. total plain);
    List.iter
      (fun (name, only) ->
        Util.put bag name (total ~only j1 /. total ~only plain))
      [
        ("par.speedup_128px", fun it -> it.pixels < 512 * 512);
        ("par.speedup_512px", fun it -> it.pixels >= 512 * 512);
      ];
    Util.put bag "telemetry.overhead" (total traced /. total plain);
    Layers.put_par bag !sink_report;
    let times = Layers.trace_images ~reps (Array.to_list (Array.map (fun it -> it.data) corpus)) in
    List.iteri
      (fun i t -> if t = None then checks := ("staged decode differs: " ^ corpus.(i).label) :: !checks)
      times;
    let times = List.filter_map Fun.id times in
    Layers.put_jpeg2000 bag times;
    Printf.eprintf
      "closure decode_corpus: pass %.1f ms at jobs %d, %.1f ms at jobs 1, %.1f ms traced\n"
      (total plain *. 1000.0) jobs (total j1 *. 1000.0) (total traced *. 1000.0)
  end;
  Util.put bag "peak_rss_mb" (Util.peak_rss_mb ());
  Util.put bag "ok_share" (1.0 -. (float_of_int !failed /. float_of_int !attempted));
  Par.Pool.shutdown pool;
  { Util.jobs; attempted = !attempted; failed = !failed; checks = !checks }
