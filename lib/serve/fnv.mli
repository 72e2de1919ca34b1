(** FNV-1a (64-bit) folds — the one hash behind cache keys, stream
    digests and the [pixels_digest] of every serve and fleet report.

    Each fold takes the running hash and returns the next one, so
    folds compose ([int (int basis w) h], then [ints] over the
    samples). None of them allocates per element. *)

val basis : int64
(** The FNV-1a offset basis, the starting hash of every fold. *)

val int : int64 -> int -> int64
(** Folds one value: xor with its sign-extended 64-bit form, then
    multiply by the FNV prime. *)

val ints : int64 -> int array -> int64
(** {!int} over every element, in index order. *)

val string : int64 -> string -> int64
(** {!int} over every byte's code, in order. *)

val image : int64 -> Jpeg2000.Image.t -> int64
(** Per plane, in order: its width, its height, then {!ints} over its
    samples. *)

val int64 : int64 -> int64 -> int64
(** Folds a 64-bit value (another digest, say) as two {!int}s: its
    high 32 bits, then its low 32 bits. *)
