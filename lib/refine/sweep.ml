(* Bulk refinement checking: run an array of checks through the worker
   pool, memoizing verdicts in the persistent cache.  This is the engine
   behind the Section 3 matrix and the opt-fuzz validation sweep
   (Section 6): both are embarrassingly parallel and largely stable
   across runs, so re-running an enlarged sweep only pays for the new
   checks.

   Verdict order matches the input array regardless of [jobs] or cache
   state; a crashed or timed-out worker task degrades only its own check
   to [Checker.Unknown]. *)

open Ub_ir
open Ub_sem

(* One combined-checker query; [inputs] restricts it to enumeration
   over those argument tuples, as in [Checker.check]. *)
type task = { mode : Mode.t; src : Func.t; tgt : Func.t; inputs : Value.t list list option }

type report = {
  verdicts : Checker.verdict array;
  pool : Ub_exec.Pool.stats;
  cache_hits : int;
  cache_misses : int;
}

let key (t : task) =
  Verdict_cache.key ?inputs:t.inputs ~mode:t.mode ~kind:Verdict_cache.combined_kind
    ~src:t.src ~tgt:t.tgt ()

let check ?jobs ?timeout_s ?(cache : Ub_exec.Cache.t option) (tasks : task array) : report =
  let hits0, misses0 = Verdict_cache.lookups () in
  let results, pool =
    Ub_exec.Pool.map_cached ?jobs ?timeout_s
      ~find:(fun t -> Option.bind cache (fun c -> Verdict_cache.find c (key t)))
      ~store:(fun t v -> Option.iter (fun c -> Verdict_cache.store c (key t) v) cache)
      (fun t -> Checker.check ?inputs:t.inputs t.mode ~src:t.src ~tgt:t.tgt)
      tasks
  in
  { verdicts =
      Array.map
        (function
          | Ub_exec.Pool.Done v -> v
          | Ub_exec.Pool.Crashed msg -> Checker.Unknown ("worker crashed: " ^ msg)
          | Ub_exec.Pool.Timed_out -> Checker.Unknown "task timed out")
        results;
    pool;
    cache_hits = fst (Verdict_cache.lookups ()) - hits0;
    cache_misses = snd (Verdict_cache.lookups ()) - misses0;
  }
