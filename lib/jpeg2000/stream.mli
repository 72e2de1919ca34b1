(** Resumable, chunk-fed codestream parsing.

    A {!t} is the incremental twin of {!Codestream.parse_result}: it
    is fed arbitrary byte chunks ({!feed}) and consumes framing units
    — the preamble, then one tile segment at a time — as soon as the
    buffered bytes complete them. The machine is {e chunk-size
    invariant}: feeding any partition of a byte string (1-byte
    chunks, the whole string at once, anything between) drives it
    through the same unit sequence to the same final result, equal to
    [Codestream.parse_result] of the concatenation (asserted by a
    qcheck property in the test suite).

    Streaming cannot distinguish "truncated" from "more bytes on the
    way", so truncation is only reported by {!finish}, which marks
    end-of-input and returns the definitive status. Non-truncation
    framing damage (bad magic, bad version, an out-of-range field) is
    definite the moment it is seen: no suffix can repair a broken
    prefix, so {!feed} reports it immediately as [Corrupt]. *)

type t

type status =
  | Need_more  (** no new unit completed; awaiting more bytes *)
  | Segment_ready
      (** at least one new unit (preamble or tile segment) completed
          during this call; inspect {!header} / {!tiles_ready} *)
  | Done
      (** structurally complete: preamble and every announced tile
          segment parsed (a subsequent {!finish} returns the parse) *)
  | Corrupt of Codestream.error  (** definite framing damage *)

val create : unit -> t

val feed : t -> string -> status
(** Append a chunk and consume every framing unit it completes.
    Raises [Invalid_argument] after {!finish}. *)

val finish : t -> status
(** Mark end-of-input and return the definitive status: [Done] iff
    the bytes fed so far form a well-formed codestream, otherwise
    [Corrupt] with exactly the error — including the [Truncated]
    offset — that {!Codestream.parse_result} reports for the same
    bytes. Idempotent. *)

val status : t -> status
(** Current status without feeding ([Need_more] while incomplete and
    unfinished). *)

val header : t -> Codestream.header option
(** Available from the moment the preamble lands. *)

val tile_count : t -> int option
(** Announced tile-segment count, known with the preamble. *)

val tiles_ready : t -> int
(** Tile segments fully parsed so far. *)

val tile : t -> int -> Codestream.tile_segment
(** [tile t i] for [i < tiles_ready t], in stream order. Raises
    [Invalid_argument] otherwise. *)

val bytes_fed : t -> int

val received : t -> string
(** Every byte fed so far, in order — the prefix a deadline-driven
    flush hands to {!Decoder.decode_robust}. *)

val parse_result : t -> (Codestream.t, Codestream.error) result
(** The definitive parse of everything fed so far, as if by
    {!Codestream.parse_result} on {!received}; implicitly finishes
    the stream. *)

(** {1 Unit layout}

    Where each framing unit of a byte string ends, read in one pass of
    the same unit readers the machine drives. Unit parsing is
    prefix-monotone (a unit read from a prefix either completes with
    the very bytes it reads from the whole string or stops early) and
    the machine is chunk-size invariant, so a machine fed any prefix
    of length [l] has landed exactly the units whose end is [<= l]:
    readiness over a delivery is a walk over these offsets, with no
    machine, no copies and no re-parsing. A qcheck property in the
    test suite checks the agreement at every prefix length. *)

type layout = {
  preamble_end : int option;
      (** offset just past the preamble; [None] if it never parses *)
  tile_count : int;  (** announced tile count; [0] without a preamble *)
  tile_ends : int array;
      (** end offset of every tile segment that parses before the first
          framing error or truncation, in stream order (strictly
          increasing, at most [tile_count] long) *)
}

val layout : string -> layout
