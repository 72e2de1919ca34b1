(** Decode requests and seeded workload specifications.

    A request names a registered codestream, what to decode from it
    (full image, a spatial region, or a reduced resolution level), a
    priority and an absolute deadline on the service's simulated
    clock. Workloads are generated from a compact spec string by a
    seeded {!Faults.Rng} stream, so equal specs replay bit for bit. *)

type target =
  | Full
  | Region of { rx : int; ry : int; rw : int; rh : int }
      (** decode only the window, as {!Jpeg2000.Decoder.decode_region} *)
  | Reduced of { discard : int }
      (** decode at [1/2^discard] resolution, as
          {!Jpeg2000.Decoder.decode_reduced} *)

type t = {
  id : int;  (** unique, in generation order *)
  trace : int64;  (** per-request trace id, pure function of (seed, id) *)
  stream : int;  (** index into the service's registered codestreams *)
  target : target;
  priority : int;  (** 0 = most urgent; EDF tie-breaker *)
  arrival_ps : int;
  deadline_ps : int;  (** absolute SLO deadline *)
}

val pp_target : Format.formatter -> target -> unit

val trace_id : seed:int -> int -> int64
(** The trace id of request [id] under a workload seed — a pure hash,
    so replays and any [--jobs] agree and a reader can recompute it. *)

val trace_to_string : int64 -> string
(** Canonical 16-hex-digit rendering, as threaded through span args
    and histogram exemplars. *)

(** {1 Workload specs}

    Spec strings have the shape [shape:key=v,key=v,...]:

    - [open:n=64,rate=400,seed=11,deadline=25,region=0.25,reduced=0.25]
      — open loop: [n] requests with exponential interarrival times at
      [rate] requests per simulated second, regardless of completions.
    - [closed:n=64,clients=4,think=2,seed=11,deadline=25,region=0.25,reduced=0.25]
      — closed loop: [clients] clients each issue their next request an
      exponential think time (mean [think] ms) after their previous one
      completes.

    [deadline] is the relative SLO in ms; [region]/[reduced] are the
    shares of region and reduced-resolution requests (the remainder
    decodes the full image). Unknown keys, malformed values, NaN,
    out-of-range shares, rates below 0.001 and durations ([deadline],
    [think]) that {!Spec.duration} refuses are rejected with a
    one-line message naming the key and value. *)

type shape =
  | Open_loop of { rate_rps : float }
  | Closed_loop of { clients : int; think_ms : float }

type spec = {
  shape : shape;
  n : int;  (** total requests *)
  seed : int;
  deadline_ms : float;
  region_share : float;
  reduced_share : float;
}

val parse_spec : string -> (spec, string) result
val spec_to_string : spec -> string
(** Canonical form, embedded in reports; it parses back to the same
    spec. *)

val draw_target :
  Faults.Rng.t -> width:int -> height:int -> levels:int -> spec -> target
(** One target from the spec's mix: region windows are uniform within
    the image (16 px minimum side), reduced levels uniform in
    [1..levels]. *)

val draw_priority : Faults.Rng.t -> int
(** Uniform in [0..3]. *)

val exp_draw : Faults.Rng.t -> mean:float -> float
(** Exponentially distributed with the given mean (interarrival and
    think times). *)
