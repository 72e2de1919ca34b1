let dc_shift_forward ~bit_depth samples =
  let offset = 1 lsl (bit_depth - 1) in
  Array.iteri (fun i v -> samples.(i) <- v - offset) samples

let dc_shift_inverse ~bit_depth samples =
  let offset = 1 lsl (bit_depth - 1) in
  let top = (1 lsl bit_depth) - 1 in
  for i = 0 to Array.length samples - 1 do
    let v = samples.(i) + offset in
    samples.(i) <- (if v < 0 then 0 else if v > top then top else v)
  done

let round_shift_inverse ~bit_depth values =
  let offset = 1 lsl (bit_depth - 1) in
  let top = (1 lsl bit_depth) - 1 in
  let samples = Array.make (Array.length values) 0 in
  for i = 0 to Array.length values - 1 do
    let v = int_of_float (Float.round values.(i)) + offset in
    samples.(i) <- (if v < 0 then 0 else if v > top then top else v)
  done;
  samples

let check_lengths a b c name =
  if Array.length a <> Array.length b || Array.length b <> Array.length c then
    invalid_arg (name ^ ": component length mismatch")

(* Reversible component transform (ISO 15444-1 G.1):
   Y = floor((R + 2G + B) / 4); Cb = B - G; Cr = R - G. *)
let rct_forward r g b =
  check_lengths r g b "Colour.rct_forward";
  for i = 0 to Array.length r - 1 do
    let red = r.(i) and green = g.(i) and blue = b.(i) in
    let y =
      (* Arithmetic shift floors also for negative sums. *)
      (red + (2 * green) + blue) asr 2
    in
    r.(i) <- y;
    g.(i) <- blue - green;
    b.(i) <- red - green
  done

let rct_inverse y cb cr =
  check_lengths y cb cr "Colour.rct_inverse";
  for i = 0 to Array.length y - 1 do
    let green = y.(i) - ((cb.(i) + cr.(i)) asr 2) in
    let blue = cb.(i) + green in
    let red = cr.(i) + green in
    y.(i) <- red;
    cb.(i) <- green;
    cr.(i) <- blue
  done

(* Irreversible component transform (ISO 15444-1 G.2). The inverse
   coefficients are derived from the luminance weights rather than
   taken as the spec's 5-digit roundings, so forward∘inverse is exact
   to floating-point precision. *)
let w_r = 0.299
let w_g = 0.587
let w_b = 0.114

let ict_forward r g b =
  if Array.length r <> Array.length g || Array.length g <> Array.length b then
    invalid_arg "Colour.ict_forward: component length mismatch";
  for i = 0 to Array.length r - 1 do
    let red = r.(i) and green = g.(i) and blue = b.(i) in
    let y = (w_r *. red) +. (w_g *. green) +. (w_b *. blue) in
    r.(i) <- y;
    g.(i) <- 0.5 /. (1.0 -. w_b) *. (blue -. y);
    b.(i) <- 0.5 /. (1.0 -. w_r) *. (red -. y)
  done

let ict_inverse y cb cr =
  if Array.length y <> Array.length cb || Array.length cb <> Array.length cr
  then invalid_arg "Colour.ict_inverse: component length mismatch";
  let k_cr = 2.0 *. (1.0 -. w_r) in
  let k_cb = 2.0 *. (1.0 -. w_b) in
  for i = 0 to Array.length y - 1 do
    let lum = y.(i) and u = cb.(i) and v = cr.(i) in
    let red = lum +. (k_cr *. v) in
    let blue = lum +. (k_cb *. u) in
    let green = (lum -. (w_r *. red) -. (w_b *. blue)) /. w_g in
    y.(i) <- red;
    cb.(i) <- green;
    cr.(i) <- blue
  done
