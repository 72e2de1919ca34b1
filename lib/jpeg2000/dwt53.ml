(* Whole-sample symmetric reflection of index [i] into [0, n). *)
let reflect n i = if i < 0 then -i else if i >= n then (2 * n) - 2 - i else i

let forward_1d src =
  let n = Array.length src in
  if n <= 1 then Array.copy src
  else begin
    let nl = (n + 1) / 2 and nh = n / 2 in
    let x i = src.(reflect n i) in
    let d = Array.make nh 0 in
    for i = 0 to nh - 1 do
      d.(i) <- x ((2 * i) + 1) - ((x (2 * i) + x ((2 * i) + 2)) asr 1)
    done;
    let dd i = if i < 0 then d.(0) else if i >= nh then d.(nh - 1) else d.(i) in
    let dst = Array.make n 0 in
    for i = 0 to nl - 1 do
      dst.(i) <- x (2 * i) + ((dd (i - 1) + dd i + 2) asr 2)
    done;
    Array.blit d 0 dst nl nh;
    dst
  end

let inverse_1d src =
  let n = Array.length src in
  if n <= 1 then Array.copy src
  else begin
    let nl = (n + 1) / 2 and nh = n / 2 in
    let d i = src.(nl + i) in
    let dd i = if i < 0 then d 0 else if i >= nh then d (nh - 1) else d i in
    let even = Array.make nl 0 in
    for i = 0 to nl - 1 do
      even.(i) <- src.(i) - ((dd (i - 1) + dd i + 2) asr 2)
    done;
    let ev j = if j >= nl then even.(nl - 1) else even.(j) in
    let dst = Array.make n 0 in
    for i = 0 to nl - 1 do
      dst.(2 * i) <- even.(i)
    done;
    for i = 0 to nh - 1 do
      dst.((2 * i) + 1) <- d i + ((even.(i) + ev (i + 1)) asr 1)
    done;
    dst
  end

(* Row/column access into the top-left [w]x[h] region of a plane. *)
let get_row plane ~w y =
  Array.init w (fun x -> Image.plane_get plane ~x ~y)

let set_row plane y row =
  Array.iteri (fun x v -> Image.plane_set plane ~x ~y v) row

let get_col plane ~h x =
  Array.init h (fun y -> Image.plane_get plane ~x ~y)

let set_col plane x col =
  Array.iteri (fun y v -> Image.plane_set plane ~x ~y v) col

let forward_level plane ~w ~h =
  for y = 0 to h - 1 do
    set_row plane y (forward_1d (get_row plane ~w y))
  done;
  for x = 0 to w - 1 do
    set_col plane x (forward_1d (get_col plane ~h x))
  done

let inverse_level plane ~w ~h =
  for x = 0 to w - 1 do
    set_col plane x (inverse_1d (get_col plane ~h x))
  done;
  for y = 0 to h - 1 do
    set_row plane y (inverse_1d (get_row plane ~w y))
  done

let check_levels levels =
  if levels < 0 then invalid_arg "Dwt53: negative level count"

let forward_plane plane ~levels =
  check_levels levels;
  let rec loop level w h =
    if level < levels then begin
      forward_level plane ~w ~h;
      loop (level + 1) (Subband.low_size w) (Subband.low_size h)
    end
  in
  loop 0 plane.Image.width plane.Image.height

let inverse_plane plane ~levels =
  check_levels levels;
  (* Undo from the deepest level outwards. *)
  let rec sizes level w h acc =
    if level = levels then acc
    else sizes (level + 1) (Subband.low_size w) (Subband.low_size h) ((w, h) :: acc)
  in
  List.iter
    (fun (w, h) -> inverse_level plane ~w ~h)
    (sizes 0 plane.Image.width plane.Image.height [])

(* -- in-place inverse over a flat plane ------------------------------

   The same lifting arithmetic as [inverse_1d] (integer, so the
   result is bit-identical), but reading and writing a {!Plane}
   directly through two per-domain scratch lines instead of
   allocating [Array.init] rows/columns and intermediate arrays per
   line — on the parallel path those per-line allocations are minor-
   heap churn every worker domain pays. *)

(* [even.(i)] of a line whose [n]-prefix sits in [line]; shared by
   the row and column passes below. *)
let flat_even line even n =
  let nl = (n + 1) / 2 and nh = n / 2 in
  for i = 0 to nl - 1 do
    let dm = line.(nl + (if i = 0 then 0 else i - 1)) in
    let d0 = line.(nl + (if i >= nh then nh - 1 else i)) in
    even.(i) <- line.(i) - ((dm + d0 + 2) asr 2)
  done

let inverse_level_flat p ~w ~h =
  let pw = Plane.width p in
  let data = Plane.data p in
  let line = Plane.Scratch.ints (Stdlib.max w h) in
  let even = Plane.Scratch.ints2 ((Stdlib.max w h / 2) + 1) in
  (* Columns first, then rows — the order of [inverse_level]. *)
  if h > 1 then begin
    let nl = (h + 1) / 2 and nh = h / 2 in
    for x = 0 to w - 1 do
      for i = 0 to h - 1 do
        line.(i) <- Bigarray.Array1.unsafe_get data ((i * pw) + x)
      done;
      flat_even line even h;
      for i = 0 to nl - 1 do
        Bigarray.Array1.unsafe_set data ((2 * i * pw) + x) even.(i)
      done;
      for i = 0 to nh - 1 do
        let e1 = if i + 1 >= nl then even.(nl - 1) else even.(i + 1) in
        Bigarray.Array1.unsafe_set data
          ((((2 * i) + 1) * pw) + x)
          (line.(nl + i) + ((even.(i) + e1) asr 1))
      done
    done
  end;
  if w > 1 then begin
    let nl = (w + 1) / 2 and nh = w / 2 in
    for y = 0 to h - 1 do
      let base = y * pw in
      for i = 0 to w - 1 do
        line.(i) <- Bigarray.Array1.unsafe_get data (base + i)
      done;
      flat_even line even w;
      for i = 0 to nl - 1 do
        Bigarray.Array1.unsafe_set data (base + (2 * i)) even.(i)
      done;
      for i = 0 to nh - 1 do
        let e1 = if i + 1 >= nl then even.(nl - 1) else even.(i + 1) in
        Bigarray.Array1.unsafe_set data
          (base + (2 * i) + 1)
          (line.(nl + i) + ((even.(i) + e1) asr 1))
      done
    done
  end

let inverse_flat p ~levels =
  check_levels levels;
  let rec sizes level w h acc =
    if level = levels then acc
    else sizes (level + 1) (Subband.low_size w) (Subband.low_size h) ((w, h) :: acc)
  in
  List.iter
    (fun (w, h) -> inverse_level_flat p ~w ~h)
    (sizes 0 (Plane.width p) (Plane.height p) [])
