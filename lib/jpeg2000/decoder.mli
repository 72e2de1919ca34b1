(** JPEG 2000 decoder, staged as in Figure 1 of the paper.

    The decode chain is exposed stage by stage —

    {v
    Coded Image -> [entropy decode] -> [IQ] -> [IDWT] -> [ICT] -> [DC shift]
    v}

    — because the OSSS system models distribute exactly these stages
    over Software Tasks and Shared Objects; each model invokes the
    same functions the monolithic {!decode} uses, so the functional
    behaviour of every hardware/software partitioning is identical by
    construction.

    Every stage that fans out over independent work units — code
    blocks within a tile, planes in the IDWT, tiles in a full decode —
    takes an optional [?pool] ({!Par.Pool.t}, default
    {!Par.Pool.sequential}). Results are merged by index, so a decode
    on any pool is bit-identical to the sequential one.

    {b Memory layout.} Every whole-image entry point decodes through
    {e flat} coefficient planes: each component's coefficients live in
    one off-heap {!Plane} (Mallat layout), code blocks decode through
    per-domain scratch state ({!T1.decode_block_scalable_scratch}) and
    blit their rectangle into the shared plane, and the inverse
    transforms run in place ({!Dwt53.inverse_flat},
    {!Dwt97.inverse_ip}). No per-block or per-line allocation survives
    into the steady state, so parallel decodes stop serialising on the
    minor collector's stop-the-world synchronisation. (The boxed
    whole-tile pipeline behind the former [?flat:false] flag served
    one release as a bit-identity cross-check and is retired; a
    golden-digest qcheck regression pins the flat output instead.)
    The boxed {e stage-by-stage} functions below remain — they are
    the refinement surface the OSSS system models distribute over
    Software Tasks and Shared Objects, not a second whole-tile
    pipeline. *)

type band_coeffs = {
  bc_band : Subband.band;
  bc_planes : int;
  bc_coeffs : int array;  (** quantiser indices (or raw 5/3 coefficients) *)
}

type entropy_decoded = {
  ed_tile : Codestream.tile_segment;  (** originating segment *)
  ed_comps : band_coeffs list array;
}

type wavelet_domain =
  | Ints of Image.plane array  (** reversible path *)
  | Floats of Dwt97.matrix array  (** irreversible path *)

val parse : string -> Codestream.t
(** Stage 0: codestream parsing (the paper folds this into the
    arithmetic-decoder task). *)

val entropy_decode_tile :
  ?max_passes:int ->
  ?pool:Par.Pool.t ->
  Codestream.header ->
  Codestream.tile_segment ->
  entropy_decoded
(** Stage 1: MQ/EBCOT decoding of every subband of a tile.
    [max_passes] truncates every code block to its first coding
    passes (SNR scalability); default: all. Code blocks are
    independent MQ codewords and decode in parallel on [pool]. *)

val dequantise : Codestream.header -> entropy_decoded -> wavelet_domain
(** Stage 2 (IQ): rebuild the Mallat coefficient layout; inverse
    quantisation on the lossy path, plain placement on the lossless
    path. *)

val inverse_wavelet :
  ?pool:Par.Pool.t -> Codestream.header -> wavelet_domain -> wavelet_domain
(** Stage 3 (IDWT): 5/3 or 9/7 multi-level inverse transform, in
    place; component planes transform in parallel on [pool]. *)

val inverse_colour_and_shift :
  Codestream.header -> Codestream.tile_segment -> wavelet_domain -> Tile.t
(** Stage 4 (ICT + DC shift): back to unsigned samples. Consumes the
    domain: the colour transform runs in place on its planes. *)

val decode_tile :
  ?max_passes:int ->
  ?pool:Par.Pool.t ->
  Codestream.header ->
  Codestream.tile_segment ->
  Tile.t
(** All tile stages composed, through the flat-plane pipeline. Equals
    the boxed stage chain ({!entropy_decode_tile} → {!dequantise} →
    {!inverse_wavelet} → {!inverse_colour_and_shift}) bit for bit. *)

val decode : ?pool:Par.Pool.t -> string -> Image.t
(** Full decode of a codestream. Tiles fan out over [pool]; inside a
    worker the per-tile stages degrade to sequential (the pool is
    re-entrancy-safe), so a single-tile stream still parallelises
    over its code blocks when called from the main domain. *)

val decode_progressive :
  ?pool:Par.Pool.t -> max_passes:int -> string -> Image.t
(** Quality-scalable decode: every code block contributes only its
    first [max_passes] coding passes, as if the stream had been
    truncated at that pass boundary — fidelity increases
    monotonically with [max_passes] and reaches the exact
    reconstruction once all passes are included. *)

val decode_region :
  ?pool:Par.Pool.t ->
  x:int ->
  y:int ->
  w:int ->
  h:int ->
  string ->
  Image.t
(** Region-of-interest decode: entropy-decodes only the tiles that
    intersect the requested window and crops the result to it — the
    random-access capability tiling exists for. Raises
    [Invalid_argument] if the window is empty or falls outside the
    image. *)

val decode_reduced :
  ?pool:Par.Pool.t -> discard_levels:int -> string -> Image.t
(** Resolution-scalable decode: reconstructs the image at
    [1/2^discard_levels] of its dimensions by entropy-decoding only
    the coarser subbands and running fewer inverse-wavelet levels —
    the wavelet pyramid's signature capability. Requires
    [0 <= discard_levels <= levels] and a tile grid aligned to
    [2^discard_levels] (any power-of-two tile size qualifies);
    raises [Invalid_argument] otherwise. On the lossy path the K
    normalisation of skipped levels is preserved, so brightness does
    not drift. *)

(** {1 Graceful degradation}

    The robust decode path never raises on hostile input: a stream
    that does not parse yields a typed {!Codestream.error}; a stream
    that parses but whose entropy payload is damaged is decoded with
    {e containment} — each code block whose MQ codeword fails to
    decode is concealed (all-zero coefficients, mid-grey after the DC
    shift), each tile whose structure is inconsistent is concealed
    whole, and the rest of the image decodes normally. *)

type report = {
  concealed_blocks : int;  (** blocks replaced by concealment *)
  concealed_tiles : int;  (** tiles concealed whole *)
  total_blocks : int;
  total_tiles : int;
}

val no_damage : report -> bool
val pp_report : Format.formatter -> report -> unit

val concealed_entropy_decoded :
  Codestream.header -> Codestream.tile_segment -> entropy_decoded
(** The all-zero entropy-decoded form of a tile — what a whole-tile
    concealment feeds to the remaining stages (mid-grey after the DC
    shift). *)

val entropy_decode_tile_robust :
  ?pool:Par.Pool.t ->
  Codestream.header ->
  Codestream.tile_segment ->
  (entropy_decoded * int) option
(** Stage 1 with per-code-block containment. [Some (decoded, n)]
    decodes the tile with [n] blocks concealed; [None] means the
    tile structure itself contradicts the header geometry and the
    whole tile must be concealed. Never raises on any parsed tile. *)

val decode_robust :
  ?pool:Par.Pool.t ->
  string ->
  (Image.t * report, Codestream.error) result
(** Total decode of arbitrary bytes: [Error] iff the codestream
    framing is invalid, otherwise a full-size image with damage
    confined and reported. [decode_robust (emit s)] of a well-formed
    stream equals [Ok (decode s, r)] with [no_damage r]. Per-tile
    damage counts are merged deterministically, so image and report
    are identical on every [pool].

    A {e truncated} stream — the received prefix of a stalled or
    lossy ingest path — is decoded best-effort once its preamble is
    complete: every tile segment the prefix delivered decodes with
    per-block containment, and each grid cell whose segment never
    arrived is concealed whole (counted in [concealed_tiles]).
    [Error (Truncated _)] therefore only remains for a prefix too
    short to carry the header. *)

val psnr_impact : reference:Image.t -> Image.t * report -> float
(** PSNR (dB) of a robust decode against the undamaged reference —
    the fidelity cost of the concealment; [infinity] when nothing
    was concealed. *)

(** {1 Staged tile decode}

    The serving layer's batch scheduler coalesces the independent
    entropy-decode jobs of many tiles — across many concurrent
    requests — into one array and runs them on a single
    {!Par.Pool.map}. A {!staged} value is a tile split into those
    jobs; finishing it performs exactly the remaining stages of
    {!decode_tile} (or {!decode_tile_reduced} via [?discard]), so the
    result is bit-identical to the monolithic per-tile decode. *)

type staged

val stage_tile :
  ?max_passes:int ->
  ?discard:int ->
  Codestream.header ->
  Codestream.tile_segment ->
  staged
(** Splits a tile into its code-block jobs. [?discard] (default 0)
    stages the reduced-resolution view, matching
    [decode_reduced ~discard_levels]. Raises [Invalid_argument] if
    [discard] is negative or exceeds the header's levels, [Failure]
    if the segment contradicts the header geometry. *)

val staged_jobs : staged -> int
(** Number of independent code-block jobs. *)

val staged_coded_bytes : staged -> int
(** Entropy-coded payload of the staged (possibly reduced) view —
    the work the cache skips on a hit. *)

val staged_samples : staged -> int
(** Output samples of the staged view (tile area times components). *)

val staged_block_classes : staged -> (string * int * int) list
(** Per code-block class [(orientation, jobs, coded_bytes)] over the
    staged jobs, in LL/HL/LH/HH order, classes with jobs only — the
    profiler's T1 cost attribution. Pure function of the segment
    structure. *)

val staged_run : staged -> int -> bool
(** Decodes job [i] through this domain's scratch state straight into
    the staged tile's flat coefficient planes — the in-place protocol
    the serving layer uses. Jobs write disjoint rectangles, so any
    number of jobs of any staged tiles may run concurrently on pool
    workers. [false] marks a damaged block (containment, as in
    {!entropy_decode_tile_robust}): its rectangle stays zero and it
    must be counted via {!finish_staged_ok}. On a well-formed stream
    every job returns [true]. *)

val finish_staged_ok : staged -> bool array -> Tile.t * int
(** Finishes a tile whose jobs ran through {!staged_run}: runs IQ,
    IDWT and ICT/DC-shift over the in-place planes and returns the
    tile with the concealed-block count (the [false] entries). Raises
    [Invalid_argument] if the result count does not match
    {!staged_jobs}. *)

val reduced_size : int -> int -> int
(** [reduced_size n d] is the length of an [n]-sample dimension after
    [d] resolution levels are discarded. *)
