(* Flat, off-heap coefficient storage for the parallel decode path.

   A [t] is one native-int Bigarray per tile component: worker domains
   blit decoded code-blocks into disjoint rectangles of the shared
   plane without allocating on the OCaml heap, so the stop-the-world
   minor collections that serialise a boxed-array decode disappear
   from the hot path. The buffer lives outside the GC'd heap and is
   never scanned. *)

type data = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { pw : int; ph : int; data : data }

let create ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Plane.create: size";
  let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (w * h) in
  Bigarray.Array1.fill data 0;
  { pw = w; ph = h; data }

let width p = p.pw
let height p = p.ph
let data p = p.data

let get p ~x ~y =
  if x < 0 || x >= p.pw || y < 0 || y >= p.ph then
    invalid_arg "Plane.get: out of bounds";
  Bigarray.Array1.unsafe_get p.data ((y * p.pw) + x)

let set p ~x ~y v =
  if x < 0 || x >= p.pw || y < 0 || y >= p.ph then
    invalid_arg "Plane.set: out of bounds";
  Bigarray.Array1.unsafe_set p.data ((y * p.pw) + x) v

(* Row-major linear access for the transform inner loops; bounds are
   the caller's responsibility. *)
let unsafe_get p i = Bigarray.Array1.unsafe_get p.data i
let unsafe_set p i v = Bigarray.Array1.unsafe_set p.data i v

let fill p v = Bigarray.Array1.fill p.data v

(* Writes the [w]x[h] row-major prefix of [block] into the rectangle
   at ([x0], [y0]). The bounds check runs once per block, not per
   coefficient — corrupted geometry fails loudly instead of writing
   outside the plane. *)
let blit_block p ~x0 ~y0 ~w ~h block =
  if
    x0 < 0 || y0 < 0 || w < 0 || h < 0
    || x0 + w > p.pw
    || y0 + h > p.ph
    || Array.length block < w * h
  then invalid_arg "Plane.blit_block: rectangle out of bounds";
  for y = 0 to h - 1 do
    let src = y * w and dst = ((y0 + y) * p.pw) + x0 in
    for x = 0 to w - 1 do
      Bigarray.Array1.unsafe_set p.data (dst + x)
        (Array.unsafe_get block (src + x))
    done
  done

let to_array p =
  let a = Array.make (p.pw * p.ph) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get p.data i)
  done;
  a

let of_array ~w ~h data =
  if Array.length data <> w * h then invalid_arg "Plane.of_array: length";
  let p = create ~w ~h in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set p.data i v) data;
  p

(* -- per-domain scratch buffers --------------------------------------

   Reusable line/block buffers for the in-place wavelet transforms.
   Each key hands the calling domain one growing buffer, valid until
   the next request for the same key on the same domain — callers may
   hold [ints] and [ints2] simultaneously (e.g. the 5/3 inverse needs
   a source line and an even-sample line), but must never retain a
   buffer across work items. Buffers only grow, so a domain decoding
   many tiles of one geometry allocates exactly twice. *)

module Scratch = struct
  let int_key : int array ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [||])

  let int2_key : int array ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [||])

  let float_key : float array ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [||])

  let grab cell make n =
    if n < 0 then invalid_arg "Plane.Scratch: negative size";
    if Array.length !cell < n then
      cell := make (Stdlib.max n (2 * Array.length !cell));
    !cell

  let ints n = grab (Domain.DLS.get int_key) (fun n -> Array.make n 0) n
  let ints2 n = grab (Domain.DLS.get int2_key) (fun n -> Array.make n 0) n
  let floats n = grab (Domain.DLS.get float_key) (fun n -> Array.make n 0.0) n
end
