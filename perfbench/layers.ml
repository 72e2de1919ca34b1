(* Per-layer replays shared by the workloads. Each one drives a layer
   through its public functions on the workload's own inputs, with the
   benchmark's spans around every call, so the traced run can say
   where host time goes without instrumenting the program itself. *)

open Jpeg2000
module Span = Util.Span

let mode_name = function
  | Codestream.Lossless -> "lossless"
  | Codestream.Lossy -> "lossy"

(* -- jpeg2000: the staged decode, stage by stage ----------------------- *)

(* One jobs-1 staged decode of a codestream: parse, stage every tile,
   run every code-block job, finish (IQ + IDWT + ICT/DC), assemble.
   The result must equal [Decoder.decode]: the staged protocol is the
   serving layer's, and the check keeps this replay honest. *)
let staged_decode data =
  let cs = Span.record "jpeg2000.parse" (fun () -> Decoder.parse data) in
  let h = cs.Codestream.header in
  let segs = Array.of_list cs.Codestream.tiles in
  let staged =
    Span.record "jpeg2000.stage" (fun () ->
        Array.map (Decoder.stage_tile h) segs)
  in
  let oks =
    Span.record "jpeg2000.t1" (fun () ->
        Array.map
          (fun st -> Array.init (Decoder.staged_jobs st) (Decoder.staged_run st))
          staged)
  in
  let tiles =
    Span.record "jpeg2000.reconstruct" (fun () ->
        Array.map2 (fun st ok -> fst (Decoder.finish_staged_ok st ok)) staged oks)
  in
  let image =
    Span.record "jpeg2000.assemble" (fun () ->
        Tile.assemble ~width:h.Codestream.width ~height:h.Codestream.height
          ~components:h.Codestream.components ~bit_depth:h.Codestream.bit_depth
          (Array.to_list tiles))
  in
  let blocks = Array.fold_left (fun a st -> a + Decoder.staged_jobs st) 0 staged in
  let bytes =
    Array.fold_left (fun a st -> a + Decoder.staged_coded_bytes st) 0 staged
  in
  (image, h, segs, blocks, bytes)

(* The inverse transform alone, on planes with each tile's geometry:
   the part of [reconstruct] that is IDWT (the rest is IQ, ICT and the
   DC shift). Coefficients are filled outside the span. *)
let idwt_replay (h : Codestream.header) segs =
  let levels = h.Codestream.levels in
  Array.iter
    (fun (seg : Codestream.tile_segment) ->
      let w = seg.Codestream.tile_w and ht = seg.Codestream.tile_h in
      for c = 0 to h.Codestream.components - 1 do
        match h.Codestream.mode with
        | Codestream.Lossless ->
          let p = Plane.create ~w ~h:ht in
          for i = 0 to (w * ht) - 1 do
            Plane.unsafe_set p i (((i * 37) + c) mod 61 - 30)
          done;
          Span.record "jpeg2000.idwt" (fun () -> Dwt53.inverse_flat p ~levels)
        | Codestream.Lossy ->
          let m = Dwt97.matrix_create ~w ~h:ht in
          Array.iteri
            (fun i _ ->
              m.Dwt97.values.(i) <- float_of_int ((((i * 37) + c) mod 61) - 30))
            m.Dwt97.values;
          Span.record "jpeg2000.idwt" (fun () -> Dwt97.inverse_ip m ~levels)
      done)
    segs

type image_times = {
  it_mode : Codestream.mode;
  it_tiles : int;
  it_blocks : int;
  it_bytes : int;
  it_parse : float;
  it_stage : float;
  it_t1 : float;
  it_reconstruct : float;
  it_assemble : float;
  it_idwt : float;
  it_decode : float;  (** jobs-1 [Decoder.decode] wall of the same image *)
}

let layer_sum t = t.it_parse +. t.it_stage +. t.it_t1 +. t.it_reconstruct +. t.it_assemble

(* Traces [reps] staged decodes of every codestream and keeps, per
   image and stage, the median over the repetitions. Returns [None]
   for an image whose staged output differs from [Decoder.decode]. *)
let trace_images ~reps datas =
  let one data =
    let runs =
      List.init reps (fun _ ->
          Span.reset ();
          let image, h, segs, blocks, bytes = staged_decode data in
          idwt_replay h segs;
          let reference, decode = Util.time (fun () -> Decoder.decode data) in
          ( Image.equal image reference,
            {
              it_mode = h.Codestream.mode;
              it_tiles = Array.length segs;
              it_blocks = blocks;
              it_bytes = bytes;
              it_parse = Span.total "jpeg2000.parse";
              it_stage = Span.total "jpeg2000.stage";
              it_t1 = Span.total "jpeg2000.t1";
              it_reconstruct = Span.total "jpeg2000.reconstruct";
              it_assemble = Span.total "jpeg2000.assemble";
              it_idwt = Span.total "jpeg2000.idwt";
              it_decode = decode;
            } ))
    in
    if not (List.for_all fst runs) then None
    else
      let ts = List.map snd runs in
      let med f = Util.median (List.map f ts) in
      let t = List.hd ts in
      Some
        {
          t with
          it_parse = med (fun t -> t.it_parse);
          it_stage = med (fun t -> t.it_stage);
          it_t1 = med (fun t -> t.it_t1);
          it_reconstruct = med (fun t -> t.it_reconstruct);
          it_assemble = med (fun t -> t.it_assemble);
          it_idwt = med (fun t -> t.it_idwt);
          it_decode = med (fun t -> t.it_decode);
        }
  in
  let out = List.map one datas in
  Span.reset ();
  out

(* jpeg2000.<mode>.* metrics, per image, from traced images, and the
   closure line: the stage times against the jobs-1 decode wall, with
   the residue. *)
let put_jpeg2000 bag times =
  List.iter
    (fun mode ->
      let ts = List.filter (fun t -> t.it_mode = mode) times in
      if ts <> [] then begin
        let n = float_of_int (List.length ts) in
        let total f = Util.sum (List.map f ts) in
        let p name v = Util.put bag ("jpeg2000." ^ mode_name mode ^ "." ^ name) v in
        let ms f = total f *. 1000.0 /. n in
        p "parse_ms" (ms (fun t -> t.it_parse));
        p "stage_ms" (ms (fun t -> t.it_stage));
        p "t1_ms" (ms (fun t -> t.it_t1));
        p "reconstruct_ms" (ms (fun t -> t.it_reconstruct));
        p "idwt_ms" (ms (fun t -> t.it_idwt));
        p "assemble_ms" (ms (fun t -> t.it_assemble));
        p "decode_j1_ms" (ms (fun t -> t.it_decode));
        p "blocks" (total (fun t -> float_of_int t.it_blocks) /. n);
        p "coded_bytes" (total (fun t -> float_of_int t.it_bytes) /. n);
        p "t1_ns_per_coded_byte"
          (total (fun t -> t.it_t1) *. 1e9
          /. total (fun t -> float_of_int t.it_bytes));
        let wall = total (fun t -> t.it_decode) and layers = total layer_sum in
        p "residue_share" (1.0 -. (layers /. wall));
        let sum_ms f = total f *. 1000.0 in
        Printf.eprintf
          "closure jpeg2000.%s (%d images, jobs 1): parse %.2f + stage %.2f + \
           t1 %.2f + reconstruct %.2f (idwt %.2f) + assemble %.2f = %.2f ms \
           of decode %.2f ms, residue %.2f ms (%.1f%%)\n"
          (mode_name mode) (List.length ts)
          (sum_ms (fun t -> t.it_parse))
          (sum_ms (fun t -> t.it_stage))
          (sum_ms (fun t -> t.it_t1))
          (sum_ms (fun t -> t.it_reconstruct))
          (sum_ms (fun t -> t.it_idwt))
          (sum_ms (fun t -> t.it_assemble))
          (layers *. 1000.0) (wall *. 1000.0)
          ((wall -. layers) *. 1000.0)
          (100.0 *. (wall -. layers) /. wall)
      end)
    [ Codestream.Lossless; Codestream.Lossy ]

(* -- serve: replaying the public hooks on a run's own requests ---------- *)

type served = { req : Serve.Request.t; flushed_prefix : string option }

(* Replays expansion, assembly and digesting of every served request,
   and the report fold, with spans around each hook. Tiles come from
   one jobs-1 staged decode of each distinct (stream, tile, level) the
   requests need, in a span of its own. Returns seconds per hook, and
   the mean seconds per distinct tile decode. *)
let serve_replay service (served : served list) =
  let streams = Serve.Service.streams service in
  let tiles = Hashtbl.create 256 in
  let tile_of s i discard =
    match Hashtbl.find_opt tiles (s, i, discard) with
    | Some t -> t
    | None ->
      let st = streams.(s) in
      let t =
        Span.record "serve.decode" (fun () ->
            let staged =
              Decoder.stage_tile ~discard (Serve.Service.stream_header st)
                (Serve.Service.stream_tile st i)
            in
            let ok =
              Array.init (Decoder.staged_jobs staged) (Decoder.staged_run staged)
            in
            fst (Decoder.finish_staged_ok staged ok))
      in
      Hashtbl.replace tiles (s, i, discard) t;
      t
  in
  Span.reset ();
  let h = ref Serve.Service.fnv_basis in
  List.iter
    (fun { req; flushed_prefix } ->
      if flushed_prefix = None then begin
        let st = streams.(req.Serve.Request.stream) in
        let keys =
          Span.record "serve.expand" (fun () ->
              Serve.Service.needed_keys st req.Serve.Request.target)
        in
        let ts =
          List.map
            (fun (i, k) -> tile_of req.Serve.Request.stream i k.Serve.Cache.discard)
            keys
        in
        let image =
          Span.record "serve.assemble" (fun () ->
              Serve.Service.assemble st req.Serve.Request.target ts)
        in
        h := Span.record "serve.digest" (fun () -> Serve.Service.fnv_image !h image)
      end)
    served;
  let samples =
    List.map
      (fun { req; _ } -> req.Serve.Request.deadline_ps - req.Serve.Request.arrival_ps)
      served
  in
  ignore (Span.record "serve.report" (fun () -> Serve.Service.latency_of samples));
  let r =
    ( Span.total "serve.expand",
      Span.total "serve.assemble",
      Span.total "serve.digest",
      Span.total "serve.report",
      Span.total "serve.decode" /. float_of_int (max 1 (Span.count "serve.decode")) )
  in
  Span.reset ();
  r

(* p99 of the simulated queue wait ("queued" spans the service emits
   on its virtual timeline), in simulated ms. *)
let sim_queue_wait_p99 events =
  match Telemetry.Event.spans ~name:"queued" events with
  | [] -> 0.0
  | spans ->
    Util.quantile 0.99
      (List.map
         (fun e -> float_of_int (Telemetry.Event.duration_ps e) /. 1e9)
         spans)

(* The pool's counters, as the program emitted them through
   [Telemetry.Sink] into the given reports. [par.map.steals] is left
   out: it depends on the schedule. *)
let put_par bag reports =
  List.iter
    (fun k ->
      Util.puti bag k
        (List.fold_left (fun a r -> a + Telemetry.Report.counter r k) 0 reports))
    [ "par.map.calls"; "par.map.jobs"; "par.map.chunks"; "par.map.sequential" ]
