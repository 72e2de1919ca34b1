(** The Table 1 workload and its functional payload.

    Table 1 measures "time needed to decode 16 tiles with 3
    components". With [payload] enabled, a real image is encoded by
    our own encoder and every system model performs the actual staged
    decode (entropy decode → IQ → IDWT → ICT/DC) on genuine tile
    data, so a mis-wired model produces a wrong image, not just wrong
    timing. The payload image is reduced (128×128, 32×32 tiles) to
    keep simulations fast; the timing annotations are the profiled
    full-scale values from {!Profile}. Without [payload] the stage
    bodies are skipped and only timing is simulated. *)

type t

val codestream : ?width:int -> ?height:int -> ?seed:int -> Profile.mode -> string
(** The standard case-study codestream: a {!Jpeg2000.Image.smooth}
    image encoded at the Table 1 geometry (32×32 tiles, 3 wavelet
    levels, 16-sample code blocks; default 128×128, seed 2008). The
    payload below, the bench harness and the serving layer's
    synthetic corpus all use it, so every consumer exercises the same
    encoder configuration. *)

val make :
  ?payload:bool -> ?corrupt:int * float -> ?pool:Par.Pool.t -> Profile.mode -> t
(** 16 tiles, 3 components. [payload] defaults to [true].

    The clean part of the payload — the parsed header, the clean tile
    segments and the clean reference image that {!Jpeg2000.Decoder.decode}
    computes from the encoded bytes — is built once per process per
    mode, on first use, and shared read-only by every workload and
    every domain after that (see {!cell}). Each [make] still gets
    fresh per-tile stage slots, so every run performs its own staged
    decode and {!check} compares it bit-exactly against that reference.
    The build runs with the calling domain's telemetry sink suspended
    and on {!Par.Pool.sequential}: it is attributed to no run, and a
    run's report is the same whether or not it happened to build.

    [pool] (default {!Par.Pool.sequential}) fans the staged decodes
    the models perform — and the robust reference decode of a
    corrupted stream — out over independent code blocks and component
    planes; results are bit-identical on any pool. It does not fan out
    the clean reference decode, which is shared.

    [corrupt (seed, rate)] flips, deterministically from [seed], each
    entropy-coded payload byte's bit with probability [rate] in a
    private copy of the shared clean segments; the staged decode then
    uses the robust (per-code-block containment) entropy decoder, and
    the functional check compares against the robust reference decode
    of the same damaged stream, computed per workload — a model is
    still verified bit-exactly, concealment included. *)

(** {1 The shared clean payload} *)

type shared
(** One mode's clean payload: header, tile segments, reference
    image. Never written after it is built. *)

type cell
(** A once-only slot for one mode's {!shared} value. {!make} uses one
    process-wide cell per mode. *)

val create_cell : Profile.mode -> cell
(** A fresh, empty cell. *)

val force : cell -> shared
(** The cell's value, built on the first call (sink-neutrally, see
    {!make}). Safe to call from several domains at once: the value is
    built once under the cell's lock, and every caller gets the
    physically same value. *)

val mode : t -> Profile.mode
val tile_count : t -> int
val has_payload : t -> bool

val corrupted : t -> bool
(** Whether this workload carries a corrupted payload. *)

val concealed_blocks : t -> int
(** Code blocks the robust reference decode concealed. *)

val concealed_tiles : t -> int
(** Tiles the robust reference decode concealed whole. *)

val psnr_db : t -> float
(** PSNR of the (concealment-degraded) reference against the clean
    decode; [infinity] for an uncorrupted workload. *)

(** {1 Stage bodies}

    Each takes a tile index. They are pure bookkeeping on internal
    slot arrays — the models wrap them in EETs, Shared-Object calls
    and channels. Without payload they are no-ops. Stages must be
    invoked in order per tile; violations raise [Failure], so a model
    with broken synchronisation fails loudly. *)

val stage_decode : t -> int -> unit
val stage_iq : t -> int -> unit
val stage_idwt : t -> int -> unit
val stage_ict_dc : t -> int -> unit

val tile_payload_words : t -> int -> int
(** Serialised size of the (reduced) tile's entropy-decoded data —
    the functional part of a tile transfer. *)

val check : t -> bool option
(** After a run: [Some true] if all tiles went through all stages and
    the assembled image equals the reference decoder's output;
    [None] when running without payload. *)
