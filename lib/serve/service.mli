(** The deterministic decode service: admission control, deadline-aware
    batching, and the tile cache, driven by a simulated clock.

    The service registers a corpus of codestreams and serves a seeded
    {!Request.spec} workload against them. All scheduling decisions —
    admission, overload handling, EDF batch formation, per-request
    service times — run on a {e virtual} clock whose advances are
    computed from deterministic work counts (code blocks, coded bytes,
    samples), never from wall time. The {!Par.Pool} only accelerates
    the real entropy-decode work (bit-identical by {!Par.Pool.map}'s
    contract), so a report, including every latency percentile, is
    byte-identical across repeated runs and across any [--jobs].

    A dispatch takes the [max_batch] earliest-deadline requests from
    the queue, expands them to (stream, tile, resolution) cache keys,
    and coalesces the entropy-decode jobs of every missing tile into
    one {!Par.Pool.map}; a tile needed by several requests of one
    batch is decoded once. In simulated time the batch then serves its
    requests back to back (single decode engine), each paying only for
    the tiles it was first to need — later requests pay the cache-hit
    cost, which is how repeated and overlapping traffic gets faster
    and how the degrade path (reduced-resolution keys) stays cheap.

    With [config.ingest] set, request bytes no longer arrive whole:
    each request's codestream is delivered as a seeded
    {!Faults.Ingest.schedule} of chunks, walked against the stream's
    unit layout (computed once, at {!create}) by {!Ingest.analyse},
    and the request only becomes dispatchable once every tile it
    resolves to has landed. A stream that stalls past the request's
    deadline is {e flushed}: the received contiguous prefix is decoded
    best-effort by {!Jpeg2000.Decoder.decode_robust} (missing tiles
    concealed), served as a full frame, and accounted in
    {!ingest_stats}. The delivery timeline is a pure function of
    (workload seed, request id, spec), so ingest reports stay
    byte-identical across reruns and across any [--jobs]. *)

type overload =
  | Reject  (** full queue: the arriving request is refused *)
  | Drop_oldest  (** full queue: the oldest queued request is shed *)
  | Degrade
      (** above the high-water mark (half capacity) arriving requests
          are rewritten to the next lower resolution level
          ({!Request.Reduced}, the [decode_reduced] path); a full
          queue still refuses *)

val overload_of_string : string -> (overload, string) result
val overload_to_string : overload -> string

type config = {
  queue_capacity : int;  (** bounded request queue (>= 1) *)
  overload : overload;
  cache_capacity : int;  (** decoded tiles kept; 0 disables the cache *)
  max_batch : int;  (** requests coalesced per dispatch (>= 1) *)
  ingest : Faults.Ingest.spec option;
      (** [Some spec]: bytes arrive as a seeded (possibly faulted)
          chunk schedule; requests wait for their tiles and are
          flushed best-effort at the deadline. [None]: streams are
          complete on arrival (the historical behaviour). *)
}

val default_config : config
(** 32-deep queue, [Reject], 128-tile cache, batches of 8, no
    ingest. *)

type t

val create : ?config:config -> string array -> t
(** Registers the codestream corpus (parsed and digested once).
    Raises [Invalid_argument] on an empty corpus, a malformed
    codestream, or an out-of-range config. *)

type latency = {
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

type ingest_stats = {
  ing_spec : string;  (** canonical {!Faults.Ingest.spec_to_string} *)
  ing_chunks_sent : int;  (** across every dispatched request *)
  ing_chunks_lost : int;
  ing_chunks_duped : int;
  ing_chunks_reordered : int;
  ing_stall_ms : float;  (** total head-of-line stall injected *)
  ing_bytes : int;  (** distinct payload bytes that arrived *)
  ing_flushed : int;  (** deadline flushes served best-effort *)
  ing_flush_failed : int;
      (** flushes whose prefix could not carry even the header; the
          request is dropped *)
  ing_flush_concealed_blocks : int;  (** damage across flushed frames *)
  ing_flush_concealed_tiles : int;
  ing_flush_psnr_db : float;
      (** worst {!Jpeg2000.Decoder.psnr_impact} across flushes;
          [infinity] when no flush produced a damaged frame *)
}

type report = {
  workload : string;  (** canonical spec, {!Request.spec_to_string} *)
  streams : int;
  policy : string;
  queue_capacity : int;
  cache_capacity : int;
  max_batch : int;
  total : int;  (** requests generated *)
  served : int;
  rejected : int;
  dropped : int;
  degraded : int;  (** served at a lower resolution than requested *)
  batches : int;
  coalesced : int;
      (** tile needs satisfied by another request of the same batch *)
  concealed_blocks : int;  (** damaged blocks concealed (0 when clean) *)
  makespan_ms : float;  (** last completion on the simulated clock *)
  throughput_rps : float;  (** served per simulated second *)
  latency : latency;  (** over served requests *)
  slo_misses : int;
      (** served past the deadline, plus every rejected and dropped
          request — a refused request misses its SLO by definition *)
  slo_miss_rate : float;  (** [slo_misses / total] *)
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_hit_rate : float;
  ingest : ingest_stats option;  (** present iff [config.ingest] was *)
  pixels_digest : string;
      (** 64-bit digest (hex) folded over every served image in
          completion order — two reports with equal digests delivered
          bit-identical pixels *)
}

val run :
  ?pool:Par.Pool.t ->
  ?on_complete:(Request.t -> Jpeg2000.Image.t -> unit) ->
  ?on_flush:(Request.t -> prefix:string -> Jpeg2000.Image.t -> unit) ->
  t ->
  Request.spec ->
  report
(** Serves one workload to completion. [on_complete] observes every
    fully-served request's decoded image (in completion order) — the
    tests use it to compare against the reference decoder. [on_flush]
    observes every deadline flush instead, with the contiguous byte
    prefix the best-effort frame was decoded from. When a
    {!Telemetry.Sink} is installed, the run emits queue/exec/ingest
    spans, queue-depth counter samples, and serve.* metrics on the
    simulated timeline; telemetry never changes the report. *)

val report_to_json : report -> Telemetry.Json.t
val pp_report : Format.formatter -> report -> unit

val latency_to_json : latency -> Telemetry.Json.t
val ingest_to_json : ingest_stats option -> Telemetry.Json.t
val pp_ingest : Format.formatter -> ingest_stats -> unit
(** Blocks of a report, as {!report_to_json} and {!pp_report} render
    them. *)

(** {1 Fleet hooks}

    {!run} is the one-replica case of a replicated engine; [Fleet] (in
    [lib/fleet]) runs the same engine with many replicas, the
    consistent-hash {!Ring} and the shared L2 {!Tier}. The per-stream
    accessors and helpers below let tools replay parts of a run. *)

type topology = {
  replicas : int;  (** replicas active at start (>= 1) *)
  min_replicas : int;  (** autoscaler floor, [1 <= min <= replicas] *)
  max_replicas : int;  (** autoscaler ceiling, [>= replicas] *)
  vnodes : int;  (** ring points per replica (>= 1) *)
  l2_capacity : int;  (** shared L2 tiles; 0 disables the tier *)
  l2_transfer_ps : int;  (** simulated cost per tile fetched from L2 *)
  spill : bool;  (** saturated owner spills to ring successors *)
  up_frac : float;
      (** mean queue-depth fraction at or above which the autoscaler
          adds a replica *)
  down_frac : float;  (** depth fraction at or below which it drains one *)
  slo_up : float;
      (** windowed SLO-miss rate at or above which it adds a replica *)
  interval_ps : int;  (** autoscaler evaluation period *)
  warmup_ps : int;  (** simulated boot time before a new replica joins *)
}
(** The replica set the engine runs. Autoscaling is on iff
    [min_replicas <> max_replicas]. *)

type names = {
  metric : string;  (** prefix of every counter and histogram *)
  front : string;  (** track of admission and autoscaling instants *)
  track : int -> string -> string;
      (** [track replica role]: the track of one replica's ["queue"]
          (queued spans, depth counters), ["exec"] (request and stage
          spans, deadline misses), ["sched"] (batch spans, flushes)
          or ["ingest"] spans *)
}
(** Telemetry names: {!run} uses [serve.] metrics and the
    [serve.queue/exec/sched/ingest] tracks. *)

type replica_stat = {
  rs_id : int;
  rs_served : int;
  rs_batches : int;
  rs_busy_ms : float;  (** simulated time spent serving batches *)
}

type fleet_stats = {
  spilled : int;  (** admitted by a ring successor, not the owner *)
  l1 : Lru.stats;  (** summed over every replica incarnation *)
  l2 : Tier.t option;  (** the shared tier, [None] when disabled *)
  peak_replicas : int;  (** most simultaneously active *)
  final_replicas : int;
  scale_ups : int;
  scale_downs : int;
  scale_events : (float * string) list;
      (** (simulated ms, ["+r5"] / ["-r2"]) in decision order *)
  per_replica : replica_stat list;  (** replicas that ever activated *)
}

val run_replicas :
  ?pool:Par.Pool.t ->
  ?on_complete:(int -> Request.t -> Jpeg2000.Image.t -> unit) ->
  ?on_flush:(int -> Request.t -> prefix:string -> Jpeg2000.Image.t -> unit) ->
  names:names ->
  topology ->
  t ->
  Request.spec ->
  report * fleet_stats
(** The engine behind {!run}, over a replica set. Each arrival goes
    to the ring owner of its stream (spilling to ring successors when
    [spill] is on and the owner is full); every replica batches its
    own queue EDF, and looks tiles up in its L1, then among the
    tiles its batch already stages, then in the L2, before staging a
    fresh decode. The clock advances to the earliest of the next
    arrival, each replica's next dispatch, warm-up completions and
    autoscaler evaluations; ties resolve in replica-id order. The
    report counts every replica; its [cache_*] fields sum the L1s.
    Each replica folds its own served images into a digest as {!run}
    does; [pixels_digest] is replica 0's digest with each further
    replica that ever activated mixed in by {!Fnv.int64}, in id
    order. The callbacks get the serving replica's id. *)

type stream
(** One registered codestream: bytes, digest, parsed header and tile
    segments. *)

val streams : t -> stream array

val stream_digest : stream -> int64
(** FNV-1a-64 of the codestream bytes — the consistent-hash key. *)

val stream_header : stream -> Jpeg2000.Codestream.header
val stream_tile : stream -> int -> Jpeg2000.Codestream.tile_segment
val stream_tile_count : stream -> int

val needed_keys : stream -> Request.target -> (int * Cache.key) list
(** The (tile index, cache key) pairs a target expands to: all tiles
    at full resolution ([Full]), all tiles at the discard level
    ([Reduced]), or the intersecting tiles ([Region]). *)

val assemble : stream -> Request.target -> Jpeg2000.Tile.t list -> Jpeg2000.Image.t
(** The served image of a target from the tiles {!needed_keys} names. *)

val open_arrivals : t -> Request.spec -> Request.t array
(** Pre-draws the complete arrival sequence of an {e open-loop} spec
    with the engine's RNG discipline, sorted by (arrival, id). Raises
    [Invalid_argument] on a closed-loop spec — closed-loop arrivals
    depend on completions. *)

val latency_of : int list -> latency
(** Nearest-rank percentiles over latency samples in picoseconds. *)

val fnv_basis : int64
(** {!Fnv.basis}. *)

val fnv_image : int64 -> Jpeg2000.Image.t -> int64
(** {!Fnv.image}: the per-image fold behind [pixels_digest]. *)
