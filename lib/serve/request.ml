type target =
  | Full
  | Region of { rx : int; ry : int; rw : int; rh : int }
  | Reduced of { discard : int }

type t = {
  id : int;
  trace : int64;
  stream : int;
  target : target;
  priority : int;
  arrival_ps : int;
  deadline_ps : int;
}

let trace_id ~seed id =
  Faults.Rng.hash64 (Int64.of_int seed) (Int64.of_int id)
let trace_to_string trace = Printf.sprintf "%016Lx" trace

let pp_target ppf = function
  | Full -> Format.fprintf ppf "full"
  | Region { rx; ry; rw; rh } ->
    Format.fprintf ppf "region %dx%d+%d+%d" rw rh rx ry
  | Reduced { discard } -> Format.fprintf ppf "reduced/%d" discard

type shape =
  | Open_loop of { rate_rps : float }
  | Closed_loop of { clients : int; think_ms : float }

type spec = {
  shape : shape;
  n : int;
  seed : int;
  deadline_ms : float;
  region_share : float;
  reduced_share : float;
}

(* -- spec parsing ---------------------------------------------------- *)

let parse_spec s =
  let shape_name, body =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let ( let* ) = Result.bind in
  let* pairs = Spec.parse_pairs body in
  let known shape_keys =
    let all = [ "n"; "seed"; "deadline"; "region"; "reduced" ] @ shape_keys in
    Spec.check_known all pairs
  in
  (* a duration in ms, kept as written once it is known to convert *)
  let ms ?positive key v =
    Result.map (fun _ -> v) (Spec.duration Spec.Ms ?positive key v)
  in
  let* shape =
    match shape_name with
    | "open" ->
      let* () = known [ "rate" ] in
      let* rate_rps =
        Spec.float_field pairs "rate" 400.0 (Spec.positive "rate")
      in
      (* at least one request per 1000 simulated seconds, so the mean
         gap stays a duration [Spec.duration] accepts *)
      if rate_rps < 1e-3 then
        Error (Printf.sprintf "rate=%g must be >= 0.001" rate_rps)
      else Ok (Open_loop { rate_rps })
    | "closed" ->
      let* () = known [ "clients"; "think" ] in
      let* clients =
        Spec.int_field pairs "clients" 4 (Spec.at_least "clients" 1)
      in
      let* think_ms = Spec.float_field pairs "think" 2.0 (ms "think") in
      Ok (Closed_loop { clients; think_ms })
    | other ->
      Error (Printf.sprintf "unknown workload shape %S (use open or closed)" other)
  in
  let* n = Spec.int_field pairs "n" 64 (Spec.at_least "n" 1) in
  let* seed = Spec.int_field pairs "seed" 11 Spec.any in
  let* deadline_ms =
    Spec.float_field pairs "deadline" 25.0 (ms ~positive:true "deadline")
  in
  let* region_share =
    Spec.float_field pairs "region" 0.25 (Spec.unit_interval "region")
  in
  let* reduced_share =
    Spec.float_field pairs "reduced" 0.25 (Spec.unit_interval "reduced")
  in
  if region_share +. reduced_share > 1.0 then
    Error "region and reduced shares must sum to <= 1"
  else Ok { shape; n; seed; deadline_ms; region_share; reduced_share }

let spec_to_string spec =
  let f = Spec.float_to_string in
  let mix =
    Printf.sprintf "seed=%d,deadline=%s,region=%s,reduced=%s" spec.seed
      (f spec.deadline_ms) (f spec.region_share) (f spec.reduced_share)
  in
  match spec.shape with
  | Open_loop { rate_rps } ->
    Printf.sprintf "open:n=%d,rate=%s,%s" spec.n (f rate_rps) mix
  | Closed_loop { clients; think_ms } ->
    Printf.sprintf "closed:n=%d,clients=%d,think=%s,%s" spec.n clients
      (f think_ms) mix

(* -- seeded draws ---------------------------------------------------- *)

let exp_draw rng ~mean =
  if mean <= 0.0 then 0.0
  else
    let u = Faults.Rng.float rng in
    -.mean *. Float.log (1.0 -. u)

let draw_target rng ~width ~height ~levels spec =
  let r = Faults.Rng.float rng in
  if r < spec.region_share then begin
    let side lim =
      let max_side = Stdlib.max 16 (lim / 2) in
      Stdlib.min lim (16 + Faults.Rng.int rng (Stdlib.max 1 (max_side - 15)))
    in
    let rw = side width and rh = side height in
    let rx = Faults.Rng.int rng (width - rw + 1) in
    let ry = Faults.Rng.int rng (height - rh + 1) in
    Region { rx; ry; rw; rh }
  end
  else if r < spec.region_share +. spec.reduced_share && levels > 0 then
    Reduced { discard = 1 + Faults.Rng.int rng levels }
  else Full

let draw_priority rng = Faults.Rng.int rng 4
