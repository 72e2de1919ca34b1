(** Shared key=value spec-string parsing.

    Every spec-string flag in the CLI ([--queue], [--cache], [--batch],
    [--ingest], [--fleet], workload specs) speaks the same surface
    language: comma-separated [key=value] fields.  This module is the
    single parser for that language so error messages — which must name
    the offending key and value — stay consistent across flags, and new
    subsystems get validation for free.

    The module is dependency-free; anything above it in the library
    graph (serve, faults, fleet, bin) can use it. *)

type pairs = (string * string) list
(** Parsed fields in source order (later duplicates shadow earlier ones
    via [List.assoc] on the reversed list, matching historic behaviour). *)

val parse_pairs : string -> (pairs, string) result
(** Split [s] on [','] and each field on the first ['=']. The empty
    string parses to [[]]. A field without ['='] fails with
    [field "…" is not key=value]. *)

val check_known : ?what:string -> string list -> pairs -> (unit, string) result
(** Fail on the first key not in the allow-list, naming it:
    [unknown key "k"], or [unknown <what> key "k"] when [what] is
    given (e.g. ["ingest"], ["fleet"]). *)

val int_field :
  pairs -> string -> 'a -> (int -> ('a, string) result) ->
  ('a, string) result
(** [int_field pairs key default check]: the field's value parsed as an
    integer and passed through [check], or [Ok default] when absent.
    [check] may change the representation (e.g. ms to ps). A
    non-integer value fails with [key="v" is not an integer]. *)

val float_field :
  pairs -> string -> 'a -> (float -> ('a, string) result) ->
  ('a, string) result
(** Same for floats; failure message [key="v" is not a number]. *)

(** {1 Common checks}

    Each takes the key name so the error can name the offending value. *)

val any : 'a -> ('a, string) result
(** Always accepts — for fields whose constraints are cross-field and
    checked after parsing. *)

val at_least : string -> int -> int -> (int, string) result
(** [at_least key lo n] requires [n >= lo]:
    [key=n must be >= lo] otherwise. *)

val in_range : string -> int -> int -> int -> (int, string) result
(** [in_range key lo hi n] requires [lo <= n <= hi]. *)

val unit_interval : string -> float -> (float, string) result
(** Requires a finite value in [0, 1]: [key=v must be in [0, 1]]. *)

val positive : string -> float -> (float, string) result
(** Requires a finite value strictly greater than zero. *)

val non_negative : string -> float -> (float, string) result
(** Requires a finite value greater than or equal to zero. *)

(** {1 Durations}

    Every spec duration is written in ms or us and held as integer
    picoseconds on the simulated clock. *)

type time_unit = Ms | Us

val duration :
  time_unit -> ?positive:bool -> string -> float -> (int, string) result
(** [duration u key v] converts [v] (in unit [u]) to picoseconds,
    rounded to nearest. It fails, naming [key] and [v], when [v] is
    NaN or negative, when it exceeds 1000 simulated seconds (so the
    conversion can never overflow), and with [~positive:true] when it
    is zero or rounds to 0 ps. *)

val of_ps : time_unit -> int -> float
(** Picoseconds back to the unit, for canonical spec strings. *)

val float_to_string : float -> string
(** The [%g] form when it reads back as the same float, otherwise the
    shortest [%.Ng] that does — canonical spec strings print the
    usual short form yet round-trip exactly. *)
