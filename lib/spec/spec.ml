type pairs = (string * string) list

let parse_pairs s =
  let fields = if s = "" then [] else String.split_on_char ',' s in
  List.fold_left
    (fun acc field ->
      match acc with
      | Error _ -> acc
      | Ok pairs -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "field %S is not key=value" field)
        | Some i ->
          let key = String.sub field 0 i in
          let value = String.sub field (i + 1) (String.length field - i - 1) in
          Ok ((key, value) :: pairs)))
    (Ok []) fields

let check_known ?what keys pairs =
  match List.find_opt (fun (k, _) -> not (List.mem k keys)) pairs with
  | Some (k, _) -> (
    match what with
    | None -> Error (Printf.sprintf "unknown key %S" k)
    | Some what -> Error (Printf.sprintf "unknown %s key %S" what k))
  | None -> Ok ()

let int_field pairs key default check =
  match List.assoc_opt key pairs with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | None -> Error (Printf.sprintf "%s=%S is not an integer" key v)
    | Some n -> check n)

let float_field pairs key default check =
  match List.assoc_opt key pairs with
  | None -> Ok default
  | Some v -> (
    match float_of_string_opt v with
    | None -> Error (Printf.sprintf "%s=%S is not a number" key v)
    | Some f -> check f)

let any v = Ok v

let at_least key lo n =
  if n >= lo then Ok n
  else Error (Printf.sprintf "%s=%d must be >= %d" key n lo)

let in_range key lo hi n =
  if n >= lo && n <= hi then Ok n
  else Error (Printf.sprintf "%s=%d must be in [%d, %d]" key n lo hi)

let unit_interval key f =
  if Float.is_finite f && f >= 0.0 && f <= 1.0 then Ok f
  else Error (Printf.sprintf "%s=%g must be in [0, 1]" key f)

let positive key f =
  if Float.is_finite f && f > 0.0 then Ok f
  else Error (Printf.sprintf "%s=%g must be > 0" key f)

let non_negative key f =
  if Float.is_finite f && f >= 0.0 then Ok f
  else Error (Printf.sprintf "%s=%g must be >= 0" key f)

(* -- durations ---------------------------------------------------------- *)

type time_unit = Ms | Us

let ps_per = function Ms -> 1e9 | Us -> 1e6
let unit_name = function Ms -> "ms" | Us -> "us"

(* 1000 simulated seconds. Below 2^53 picoseconds, so every accepted
   duration is an exact float and converts to and from its integer
   picosecond count without loss. *)
let max_duration_ps = 1e15

let duration u ?(positive = false) key v =
  let ps = v *. ps_per u in
  if Float.is_nan v || v < 0.0 || (positive && v = 0.0) then
    Error
      (Printf.sprintf "%s=%g must be %s" key v
         (if positive then "> 0" else ">= 0"))
  else if ps > max_duration_ps then
    Error
      (Printf.sprintf "%s=%g exceeds %g %s" key v
         (max_duration_ps /. ps_per u) (unit_name u))
  else
    let n = int_of_float (ps +. 0.5) in
    if positive && n < 1 then
      Error (Printf.sprintf "%s=%g is shorter than 1 ps" key v)
    else Ok n

let of_ps u ps = float_of_int ps /. ps_per u

let float_to_string f =
  let rec go precision =
    let s = Printf.sprintf "%.*g" precision f in
    if precision >= 17 || float_of_string s = f then s else go (precision + 1)
  in
  go 6
