(** The sharded decode fleet: many replicas of the {!Serve.Service}
    engine behind a consistent-hash balancer, a shared L2 tile cache,
    and an autoscaler — all on one virtual clock.

    A fleet runs the very engine a single service runs
    ({!Serve.Service.run_replicas}); a single service is the fleet of
    one replica with no L2 and no autoscaling. So a fleet serves the
    same seeded workloads — open or closed loop, with or without a
    faulted ingest path and its deadline flushes — across [replicas]
    independent decode replicas. The front end routes each arriving
    request to the replica owning its codestream's digest on the
    {!Ring}; ownership keeps a stream's traffic on one replica so its
    private L1 stays hot, and the shared {!Tier} L2 behind the L1s
    turns one replica's decode into every replica's (priced) cache
    hit. Admission mirrors the single service: a saturated owner
    spills to ring successors (when [spill] is on), the [Degrade]
    policy rewrites requests above the owner's high-water mark to a
    lower resolution, and a fleet-wide reject/drop fires only when no
    replica can take the request — the front end sheds load {e before}
    any replica queue overflows.

    With [min < max] the autoscaler watches queue depth and the
    windowed SLO-miss rate every [interval]: scale-up starts a new
    replica which pays [warmup] on the simulated clock before joining
    the ring (cold L1); scale-down drains the emptiest replica —
    removed from the ring at the decision, deactivated once its queue
    empties.

    Everything is deterministic. The event loop advances the clock to
    the earliest of (next arrival, each replica's next dispatch,
    warm-up completions, autoscaler evaluations) and breaks every tie
    in replica-id order; replicas carry no timing noise of their own;
    and the {!Par.Pool} only accelerates real entropy decodes
    (bit-identical by contract). A {!report} — every percentile, every
    counter, the pixels digest — is therefore byte-identical across
    reruns and across any [--jobs], and a one-replica fleet without L2
    reports exactly what {!Serve.Service.run} reports. *)

module Ring = Serve.Ring
(** The consistent-hash balancer ring (re-exported for tests and
    tooling — [fleet] is a wrapped library). *)

module Tier = Serve.Tier
(** The shared L2 tile cache (re-exported likewise). *)

type config = Serve.Service.topology = {
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  vnodes : int;
  l2_capacity : int;
  l2_transfer_ps : int;
  spill : bool;
  up_frac : float;
  down_frac : float;
  slo_up : float;
  interval_ps : int;
  warmup_ps : int;
}
(** The replica set; see {!Serve.Service.topology} for each field. *)

val default_config : config
(** 4 replicas, no autoscaling (min = max = 4), 16 vnodes, 256-tile
    L2 at 20 us per transfer, spill on, up 0.75 / down 0.15 /
    slo 0.5, 5 ms interval, 20 ms warmup. *)

val parse_config : string -> (config, string) result
(** [key=value] spec string over
    [replicas,min,max,vnodes,l2,l2_us,spill,up,down,slo,interval,warmup]
    ([l2_us] in microseconds; [interval]/[warmup] in milliseconds,
    checked by {!Spec.duration}; [spill] 0 or 1; [min]/[max] default
    to [replicas], which disables autoscaling). Unknown keys,
    malformed values and inconsistent bounds fail with a one-line
    message naming the offending value. *)

val config_to_string : config -> string
(** Canonical form, embedded in reports; it parses back to the same
    config. *)

type t

val create : ?config:config -> ?service:Serve.Service.config -> string array -> t
(** Registers the codestream corpus once (shared by every replica;
    replica state itself lives per {!run}). [service] configures each
    replica's queue, policy, L1 cache, batching and ingest path and
    defaults to {!Serve.Service.default_config}. Raises
    [Invalid_argument] on an empty corpus, a malformed codestream or
    a config {!parse_config} would refuse (the message names the
    offending value). *)

val service : t -> Serve.Service.t
(** The underlying corpus/service view the replicas share. *)

type tier_stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  hit_rate : float;
}

type l2_stats = {
  l2_capacity : int;
  l2_tier : tier_stats;
  l2_transfers : int;  (** tiles fetched out of the shared cache *)
  l2_transfer_ms : float;  (** simulated interconnect time paid *)
  l2_invalidations : int;
}

type replica_stat = Serve.Service.replica_stat = {
  rs_id : int;
  rs_served : int;
  rs_batches : int;
  rs_busy_ms : float;  (** simulated time spent serving batches *)
}

type report = {
  fleet : string;  (** canonical {!config_to_string} *)
  workload : string;
  streams : int;
  policy : string;
  queue_capacity : int;  (** per replica *)
  l1_capacity : int;  (** per replica *)
  max_batch : int;
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  peak_replicas : int;  (** most simultaneously active *)
  final_replicas : int;
  scale_ups : int;
  scale_downs : int;
  scale_events : (float * string) list;
      (** (simulated ms, ["+r5"] / ["-r2"]) in decision order *)
  total : int;
  served : int;
  rejected : int;
  dropped : int;
  degraded : int;
  spilled : int;  (** admitted by a ring successor, not the owner *)
  batches : int;
  coalesced : int;
  concealed_blocks : int;
  makespan_ms : float;
  throughput_rps : float;
  latency : Serve.Service.latency;
  slo_misses : int;
  slo_miss_rate : float;
  l1 : tier_stats;  (** aggregated over every replica incarnation *)
  l2 : l2_stats option;  (** [None] when the tier is disabled *)
  per_replica : replica_stat list;  (** replicas that ever activated *)
  ingest : Serve.Service.ingest_stats option;
      (** present iff the service config has [ingest] *)
  pixels_digest : string;
      (** each replica folds its served images in its own completion
          order; this is replica 0's digest with every further
          replica that ever activated mixed in, in id order — equal
          digests mean bit-identical pixels *)
}

val run :
  ?pool:Par.Pool.t ->
  ?on_complete:(int -> Serve.Request.t -> Jpeg2000.Image.t -> unit) ->
  ?on_flush:(int -> Serve.Request.t -> prefix:string -> Jpeg2000.Image.t -> unit) ->
  t ->
  Serve.Request.spec ->
  report
(** Serves one workload to fleet completion. [on_complete replica
    request image] observes every fully-served request, [on_flush]
    every deadline flush with the byte prefix it was decoded from (in
    the deterministic dispatch order) — the tests compare both against
    the reference decoder. When a {!Telemetry.Sink} is installed the
    run emits one track per replica ([fleet.r<i>]: queued, request,
    stage, batch and ingest spans, queue-depth counters) plus a
    front-end track ([fleet.front]: spill/degrade/reject/scale
    instants) and fleet.* metrics on the simulated timeline;
    telemetry never changes the report. *)

val report_to_json : report -> Telemetry.Json.t
val pp_report : Format.formatter -> report -> unit
