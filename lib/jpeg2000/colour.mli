(** Colour transforms and DC level shift.

    The decoder chain of the paper ends with ICT (inverse component
    transform) and DC shift. Both directions are provided because the
    repository also contains the encoder that produces the decoder's
    input:

    - {!rct_forward}/{!rct_inverse}: the Reversible Component
      Transform used with the 5/3 wavelet (lossless path) — exact
      integer round trip;
    - {!ict_forward}/{!ict_inverse}: the Irreversible Component
      Transform (floating-point RGB↔YCbCr) used with the 9/7 wavelet;
    - {!dc_shift_forward}/{!dc_shift_inverse}: centre samples around
      zero before the wavelet and restore the unsigned range after.

    All array-of-planes functions operate in place on 3 equally sized
    planes of signed coefficients stored as [int array]. *)

val dc_shift_forward : bit_depth:int -> int array -> unit
(** Subtracts [2^(bit_depth-1)] from every sample. *)

val dc_shift_inverse : bit_depth:int -> int array -> unit
(** Adds [2^(bit_depth-1)] and clamps to [0 .. 2^bit_depth - 1]. *)

val round_shift_inverse : bit_depth:int -> float array -> int array
(** The lossy path's last step in one pass: rounds every sample to the
    nearest integer ([Float.round]), then {!dc_shift_inverse}s it into
    a fresh array. *)

val rct_forward : int array -> int array -> int array -> unit
(** In-place RGB → (Y, Cb, Cr) reversible transform on three equally
    long arrays. *)

val rct_inverse : int array -> int array -> int array -> unit

val ict_forward : float array -> float array -> float array -> unit
(** In-place RGB → YCbCr irreversible transform. *)

val ict_inverse : float array -> float array -> float array -> unit
