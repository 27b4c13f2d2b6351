(* What a workload looks like to driver.ml: [setup] builds
   the inputs (and starts whatever must run), and the instance it
   returns measures units, verifies what it saw, and tears down. *)

open Common

type budget = Seconds of float | Units of int

type inst = {
  pass_units : int; (* units in one pass over the run's inputs *)
  measure : tally -> budget -> unit;
  unit : (tally -> int -> unit) option; (* one unit by index, where units run one by one *)
  verify : tally -> unit; (* after timing: replays and recall *)
  layers : unit -> layers; (* where the layers' aggregates are read from *)
  extra : unit -> metric list; (* per-layer metrics only the workload knows *)
  extra_rss_mb : unit -> float; (* peak memory of helper processes *)
  teardown : unit -> unit;
}

(* Whether the bench.* spans are recorded: only in the traced run. *)
let traced = ref false

let span (name : string) (f : unit -> 'a) : 'a =
  if !traced then Obs.with_span name f else f ()

(* Run [unit i] over repeated passes of [pass_units] until the budget
   is spent, probing the machine's speed between units.  A time budget
   always finishes the pass it is in, so every run measures whole
   passes. *)
let run_passes ~(pass_units : int) (unit : tally -> int -> unit) (t : tally) (b : budget) =
  Calib.probes 3;
  let t0 = now () in
  let p0 = ref t0 in
  let i = ref 0 in
  let more () =
    match b with
    | Seconds s -> now () -. t0 < s || !i mod pass_units <> 0
    | Units n -> !i < n
  in
  while more () do
    Calib.maybe_probe ();
    unit t (!i mod pass_units);
    incr i;
    if !i mod pass_units = 0 || not (more ()) then begin
      let p1 = now () in
      end_pass t ~t0:!p0 ~t1:p1;
      p0 := p1
    end
  done;
  Calib.probes 3
