(** Per-request streaming delivery: a faulted chunk-arrival schedule
    ({!Faults.Ingest.schedule}) walked against the stream's unit
    layout ({!Jpeg2000.Stream.layout}).

    The analysis reassembles chunks in arrival order — duplicates
    dropped, out-of-order chunks parked until the contiguous prefix
    reaches them — and, each time the prefix grows, lands every tile
    segment whose end offset it now covers: one monotone pointer into
    the layout's tile ends, no parser run, no bytes copied. The
    {!Jpeg2000.Stream} machine is chunk-size invariant and unit
    parsing is prefix-monotone, so this is exactly when a machine fed
    the same extensions would report each tile parsed; the test suite
    keeps that machine replay as an oracle and checks both agree on
    every accessor below. Schedule and layout are deterministic, so
    the whole delivery is a pure function of (seed, spec, stream
    bytes): the scheduler reads tile readiness and stall outcomes off
    the precomputed timeline without simulating I/O events. *)

type t

val analyse :
  ?layout:Jpeg2000.Stream.layout ->
  seed:int ->
  Faults.Ingest.spec ->
  start_ps:int ->
  string ->
  t
(** Cut the stream into its faulted arrival schedule and read tile
    readiness off it. [start_ps] is the first chunk's nominal arrival
    instant. [layout] must be [Jpeg2000.Stream.layout] of the same
    bytes; a caller analysing one stream many times computes it once
    and passes it, otherwise it is derived here. *)

val delivery : t -> Faults.Ingest.delivery
(** The underlying schedule and its loss/dup/reorder/stall counters. *)

val tile_landed_ps : t -> int -> int
(** Instant the contiguous prefix first covered tile [i] (stream
    order), or [max_int] if the faulted delivery never completes it
    or it never parses. *)

val complete_ps : t -> int
(** Instant the whole codestream had landed, or [max_int]. *)

val prefix_at : t -> int -> string
(** The contiguous byte prefix received by instant [t] — what a
    deadline-driven flush hands to {!Jpeg2000.Decoder.decode_robust}. *)

val bytes_received : t -> int
(** Total distinct payload bytes that ever arrive (duplicates and
    lost chunks excluded). *)
