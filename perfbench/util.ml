(* Shared measurement plumbing: host clock, order statistics, process
   memory, GC deltas, the benchmark's own span recorder, and the
   metric bag every workload fills. Nothing here touches the program's
   virtual clock; host (wall-clock) and simulated quantities are kept
   in separate metrics with separate names. *)

let now = Unix.gettimeofday

(* Processor time of the whole process (every domain), from
   getrusage: microsecond resolution, and on a paravirtualised guest it
   leaves out the time the hypervisor gives this vCPU to others. *)
let cpu_now = Sys.time

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* -- order statistics ------------------------------------------------- *)

(* Linear interpolation between order statistics (the "type 7" rule),
   so a quantile moves smoothly instead of jumping between samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then a.(n - 1)
  else
    let f = pos -. float_of_int i in
    a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* Of [n] samples, those beyond quantile [q]: the guide's "at least ten
   beyond" rule. *)
let beyond q n = n - int_of_float (Float.ceil (q *. float_of_int n))

(* -- process memory and GC --------------------------------------------- *)

(* Peak resident set (VmHWM) in MB; Linux-only, 0 elsewhere. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

type gc = { minor_mb : float; promoted_mb : float; majors : int }

let gc_snapshot () =
  let s = Gc.quick_stat () in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  {
    minor_mb = mb s.Gc.minor_words;
    promoted_mb = mb s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_mb = b.minor_mb -. a.minor_mb;
    promoted_mb = b.promoted_mb -. a.promoted_mb;
    majors = b.majors - a.majors;
  }

(* -- spans ------------------------------------------------------------- *)

(* The benchmark's own host-clock spans, recorded around calls into the
   program's public functions (never inside it) and kept in memory,
   where the closure report sums them by name. *)
module Span = struct
  let recorded : (string * float) list ref = ref []
  let reset () = recorded := []

  let record name f =
    let t0 = now () in
    Fun.protect ~finally:(fun () -> recorded := (name, now () -. t0) :: !recorded) f

  (* Total duration of every span named [name], in seconds. *)
  let total name =
    List.fold_left
      (fun acc (n, d) -> if String.equal n name then acc +. d else acc)
      0.0 !recorded

  let count name = List.length (List.filter (fun (n, _) -> String.equal n name) !recorded)
end

(* -- metrics ----------------------------------------------------------- *)

(* Name -> value; units come from BENCHMARK.json. *)
type bag = (string, float) Hashtbl.t

let bag () : bag = Hashtbl.create 64
let put (b : bag) name v = Hashtbl.replace b name v
let puti b name v = put b name (float_of_int v)

(* Deterministic benchmark-side randomness, independent of the
   program's own generators: the workload seed plus a salt per use. *)
let rng seed salt = Random.State.make [| seed; salt; 2008 |]

(* Runs a set-up five times and keeps the last result: set-up time is
   reported as the median of the five, so one slow start does not
   move it. [dispose] releases the discarded results (pools,
   corpora), and a full major collection returns their memory, before
   the next attempt allocates — so peak RSS does not depend on when
   the collector happened to run. *)
let setup_median ~dispose f =
  let rec go i times =
    let x, dt = time f in
    if i = 5 then (x, median (dt :: times))
    else begin
      dispose x;
      Gc.full_major ();
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(* Repeats [f] (which returns true to go on) until at least [seconds]
   have passed; [f] always runs at least once. *)
let for_seconds seconds f =
  let t0 = now () in
  let rec go () = if f () && now () -. t0 < seconds then go () in
  go ()

(* What a workload run reports besides its metrics. [jobs] is the pool
   size of the measured loop; [attempted] counts the ops the measured
   phase tried; [failed] those whose output check failed or that
   raised; [checks] names every other failed check (determinism across
   repetitions, traced vs untraced). *)
type outcome = { jobs : int; attempted : int; failed : int; checks : string list }
