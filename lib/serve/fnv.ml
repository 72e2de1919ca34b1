(* FNV-1a, 64-bit. Every fold is a [for] loop over a local [ref] the
   native compiler keeps in a register, so none of them allocates: a
   closure-captured [int64 ref] (an [Array.iter] body, say) would box
   a fresh [Int64] per element instead. *)

let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let int h v = Int64.mul (Int64.logxor h (Int64.of_int v)) prime

let ints h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    h := int !h (Array.unsafe_get a i)
  done;
  !h

let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := int !h (Char.code (String.unsafe_get s i))
  done;
  !h

let image h (image : Jpeg2000.Image.t) =
  let h = ref h in
  for c = 0 to Array.length image.Jpeg2000.Image.planes - 1 do
    let p = image.Jpeg2000.Image.planes.(c) in
    h := ints (int (int !h p.Jpeg2000.Image.width) p.Jpeg2000.Image.height)
           p.Jpeg2000.Image.data
  done;
  !h

let int64 h v =
  int (int h (Int64.to_int (Int64.shift_right_logical v 32)))
    (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
