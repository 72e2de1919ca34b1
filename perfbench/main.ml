(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (decode_corpus, fleet_open, serve_stream,
   paper_sweep) for about S seconds on a pool of as many domains as
   OCaml recommends for the host (its core count), checks its outputs,
   and prints as the last line of stdout one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end metrics named in
   BENCHMARK.json; with --trace 1 they are its per-layer metrics, from
   a separate traced run. Human-readable lines (every metric with its
   unit, the closure report, the environment) go to stderr, and the
   environment record also to stdout just before the result. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name default =
  match Hashtbl.find_opt args name with
  | Some v -> v
  | None -> ( match default with Some d -> d | None -> usage ())

let int_arg name default =
  match int_of_string_opt (arg name default) with Some n -> n | None -> usage ()

let workload = arg "workload" None
let seed = int_arg "seed" None
let seconds = float_of_int (int_arg "seconds" None)
let trace = int_arg "trace" (Some "0") = 1
let jobs = Domain.recommended_domain_count ()

(* Metric names and units, from BENCHMARK.json at the checkout root. *)
let metrics_of section =
  match Telemetry.Json.load "BENCHMARK.json" with
  | Error e ->
    Printf.eprintf "perfbench: cannot read BENCHMARK.json: %s\n" e;
    exit 2
  | Ok doc -> (
    match Telemetry.Json.member section doc with
    | Some (Telemetry.Json.List items) ->
      List.map
        (fun item ->
          match
            (Telemetry.Json.member "name" item, Telemetry.Json.member "unit" item)
          with
          | Some (Telemetry.Json.Str n), Some (Telemetry.Json.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ section))
        items
    | _ -> failwith ("BENCHMARK.json: missing " ^ section))

(* A digest of the library sources, since a checkout may carry no git
   metadata; the commit is added when [.git] is present. *)
let source_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  try Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  with Sys_error _ -> "unknown"

let commit () =
  let read p = try Some (String.trim (In_channel.with_open_bin p In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    match read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
    | Some c -> c
    | None -> "unknown")
  | Some c -> c
  | None -> "none"

let () =
  let e2e = metrics_of "end_to_end" and layers = metrics_of "per_layer" in
  let run =
    match workload with
    | "decode_corpus" -> Decode_corpus.run
    | "fleet_open" -> Fleet_open.run
    | "serve_stream" -> Serve_stream.run
    | "paper_sweep" -> Paper_sweep.run
    | _ ->
      Printf.eprintf "perfbench: unknown workload %S\n" workload;
      exit 2
  in
  let env extra =
    Telemetry.Json.(
      Obj
        ([
          ("workload", Str workload);
          ("seed", Int seed);
          ("seconds", Float seconds);
          ("trace", Bool trace);
          ("cores", Int jobs);
          ("ocaml", Str Sys.ocaml_version);
          ("commit", Str (commit ()));
          ("source_digest", Str (source_digest ()));
        ]
        @ extra))
  in
  if jobs = 1 then
    prerr_endline
      "perfbench: WARNING one core: par.* figures compare jobs 1 with itself and are \
       not scaling results";
  let bag = Util.bag () in
  let outcome =
    try run ~seed ~seconds ~jobs ~trace bag
    with e ->
      Printf.eprintf "perfbench: %s raised %s\n" workload (Printexc.to_string e);
      exit 1
  in
  let known = e2e @ layers in
  Hashtbl.iter
    (fun name _ ->
      if not (List.mem_assoc name known) then
        failwith ("perfbench: metric not in BENCHMARK.json: " ^ name))
    bag;
  let wanted = if trace then layers else e2e in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt bag name with
          | Some v when Float.is_finite v -> v
          | Some _ -> failwith ("perfbench: non-finite metric " ^ name)
          | None when trace -> 0.0 (* layer not exercised by this workload *)
          | None -> failwith ("perfbench: missing end-to-end metric " ^ name)
        in
        Printf.eprintf "%-40s %16.6f %s\n" name v unit;
        (name, Telemetry.Json.(Obj [ ("value", Float v); ("unit", Str unit) ])))
      wanted
  in
  List.iter (fun c -> Printf.eprintf "perfbench: CHECK FAILED: %s\n" c) outcome.Util.checks;
  let correct = outcome.Util.failed = 0 && outcome.Util.checks = [] in
  let env =
    env
      Telemetry.Json.
        [
          ("jobs", Int outcome.Util.jobs);
          ("scaling_result", Bool (jobs > 1));
        ]
  in
  print_endline (Telemetry.Json.to_string (Telemetry.Json.Obj [ ("env", env) ]));
  print_endline
    (Telemetry.Json.to_string
       Telemetry.Json.(
         Obj
           [
             ("correct", Bool correct);
             ("attempted", Int outcome.Util.attempted);
             ("failed", Int outcome.Util.failed);
             ("metrics", Obj metrics);
           ]))
