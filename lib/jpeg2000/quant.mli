(** Scalar dead-zone quantiser and its inverse ("IQ" in the paper).

    Used on the lossy (9/7) path only; the reversible 5/3 path passes
    integer coefficients straight to the entropy coder. The step for
    a subband shrinks with decomposition depth and grows with the
    nominal band gain, approximating the synthesis-energy weighting
    of ISO/IEC 15444-1 Annex E. Reconstruction places the value at
    the middle of the quantisation interval. *)

val step_for :
  base_step:float -> levels:int -> level:int -> Subband.orientation -> float
(** Quantisation step for one subband. [base_step] is the step of the
    finest HH band; deeper bands (closer to the LL) get exponentially
    finer steps. Raises [Invalid_argument] if [base_step <= 0]. *)

val quantise : step:float -> float array -> int array
(** Dead-zone quantisation: [q = sign(x) * floor(|x| / step)]. *)

val dequantise : step:float -> int array -> float array
(** Mid-point reconstruction: 0 maps to 0, otherwise
    [sign(q) * (|q| + 0.5) * step]. *)

val dequantise_rect :
  step:float ->
  Plane.data ->
  float array ->
  stride:int ->
  x0:int ->
  y0:int ->
  w:int ->
  h:int ->
  unit
(** {!dequantise} over one rectangle of a flat plane, written to the
    same positions of a float plane of the same [stride] (the flat
    decode path's IQ, one band at a time, without a boxed
    intermediate array). One bounds check per rectangle: raises
    [Invalid_argument] if it leaves either plane. No step validation
    (the caller obtained [step] from {!step_for}). *)

val max_error : step:float -> float
(** Upper bound of [|dequantise (quantise x) - x|]: one full step (the
    dead zone is two steps wide, centred reconstruction). *)
