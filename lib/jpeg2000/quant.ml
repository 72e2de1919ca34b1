let step_for ~base_step ~levels ~level orientation =
  if base_step <= 0.0 then invalid_arg "Quant.step_for: base_step";
  if level < 0 || level > levels then invalid_arg "Quant.step_for: level";
  (* Finer steps for deeper (lower-frequency) bands: each level of
     synthesis roughly doubles a coefficient's footprint, and the
     nominal gain of the band scales the effective amplitude. *)
  let depth_scale = Float.pow 2.0 (float_of_int (level - 1)) in
  let gain_scale =
    Float.pow (sqrt 2.0) (float_of_int (Subband.gain_log2 orientation))
  in
  base_step *. gain_scale /. depth_scale

let quantise ~step values =
  if step <= 0.0 then invalid_arg "Quant.quantise: step";
  Array.map
    (fun x ->
      let q = int_of_float (floor (Float.abs x /. step)) in
      if x < 0.0 then -q else q)
    values

(* Mid-point reconstruction of one index. Inlined into both loops
   below, so the float is stored unboxed. *)
let[@inline] midpoint ~step q =
  if q = 0 then 0.0
  else
    let magnitude = (float_of_int (abs q) +. 0.5) *. step in
    if q < 0 then -.magnitude else magnitude

let dequantise ~step quantised =
  if step <= 0.0 then invalid_arg "Quant.dequantise: step";
  let n = Array.length quantised in
  let values = Array.create_float n in
  for i = 0 to n - 1 do
    values.(i) <- midpoint ~step quantised.(i)
  done;
  values

let dequantise_rect ~step (src : Plane.data) dst ~stride ~x0 ~y0 ~w ~h =
  let last = (y0 + h) * stride in
  if
    x0 < 0 || y0 < 0 || w < 0 || h < 0
    || x0 + w > stride
    || last > Array.length dst
    || last > Bigarray.Array1.dim src
  then invalid_arg "Quant.dequantise_rect: rectangle out of bounds";
  for y = y0 to y0 + h - 1 do
    let row = (y * stride) + x0 in
    for i = row to row + w - 1 do
      Array.unsafe_set dst i (midpoint ~step (Bigarray.Array1.unsafe_get src i))
    done
  done

let max_error ~step = step
