(** Content-addressed decoded-tile cache.

    Keys name the decoded artefact, not the request: the 64-bit
    digest and length of the codestream bytes, the tile index, and
    the resolution level ([discard = 0] is full resolution, matching
    the degraded serving path's [decode_reduced] levels otherwise). A
    region request contributes no key dimension of its own — it
    expands to the full-resolution tiles its window intersects, so
    overlapping and repeated windows share cached entropy decodes and
    only the (cheap) crop is recomputed.

    Collisions are harmless by construction: {!Lru} compares the full
    key on every hit. *)

type key = {
  digest : int64;  (** {!digest} of the codestream bytes *)
  length : int;  (** codestream length — a second cheap discriminator *)
  tile : int;  (** tile index within the codestream *)
  discard : int;  (** resolution levels discarded; 0 = full *)
}

type t

val digest : string -> int64
(** {!Fnv.string} from {!Fnv.basis} over the bytes — deterministic and
    dependency-free; collision honesty comes from the full-key
    compare, not from digest strength. *)

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val find : t -> key -> Jpeg2000.Tile.t option
val add : t -> key -> Jpeg2000.Tile.t -> unit
val stats : t -> Lru.stats
val length : t -> int
val capacity : t -> int
