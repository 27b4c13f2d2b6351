(* Counterexample minimization for the refinement checker: the glue
   between the generic [Ub_shrink.Reduce] engine and this library's
   oracle, [not_refined]: the combined checker reports a concrete
   counterexample for (src, tgt) under a mode — the opt-fuzz and matrix
   "UNSOUND" cells.

   The oracle is exception-safe (a raising checker counts as "predicate
   does not hold", so reduction never escapes the failure class it
   started from) and routes every query through the verdict cache when
   one is supplied, making large reductions replayable: a re-run of the
   same reduction is pure cache hits.  [minimize_corpus] fans a batch
   of reductions out over the [Ub_exec.Pool] workers. *)

open Ub_ir
open Ub_sem

(* Reduction makes hundreds of oracle calls, and the hunt farm checks
   under the same budgets so that the shrinker can reproduce whatever
   it finds.  The universal budget caps the choice bits the refinement
   body reads (the cofactor support), so expansion costs at most 2^10
   cofactor applications over one encoding; a body that reads more
   hands off to enumeration.  10 is the measured knee of hunt
   throughput: 8 leaves sources that are cheap to expand on the much
   slower enumeration path, 12 raises peak memory and gains no
   throughput (EXPERIMENTS.md, "Universal budget knee").  The budget is part of the
   cache key: a verdict reached under a small universal expansion must
   never be served to a full-budget caller.  [Unknown] is never cached
   either way. *)
let reduce_universal_bits = 10
let reduce_conflicts = 50_000

let check_cached ?cache ?inputs ?max_universal_bits ?max_conflicts (mode : Mode.t) ~src
    ~tgt : Checker.verdict =
  let run () = Checker.check ?inputs ?max_universal_bits ?max_conflicts mode ~src ~tgt in
  match cache with
  | None -> run ()
  | Some c -> (
    let k =
      Verdict_cache.key ?inputs ?max_universal_bits ?max_conflicts ~mode
        ~kind:Verdict_cache.combined_kind ~src ~tgt ()
    in
    match Verdict_cache.find c k with
    | Some v -> v
    | None ->
      let v = run () in
      Verdict_cache.store c k v;
      v)

let not_refined ?cache ?inputs ?(max_universal_bits = reduce_universal_bits)
    ?(max_conflicts = reduce_conflicts) (mode : Mode.t) ~src ~tgt : bool =
  match
    (try check_cached ?cache ?inputs ~max_universal_bits ~max_conflicts mode ~src ~tgt
     with _ -> Checker.Unknown "checker raised")
  with
  | Checker.Counterexample _ -> true
  | Checker.Refines | Checker.Unknown _ -> false

type reduction = {
  red_src : Func.t;
  red_tgt : Func.t;
  stats : Ub_shrink.Reduce.stats;
  verdict : Checker.verdict; (* re-check of the minimized pair *)
}

(* Minimize a failing transform pair under the "still a counterexample"
   oracle.  [None] when the pair is not a counterexample to begin with
   (nothing to reduce — returning the input unchanged would let a
   reducer bug silently "fix" a report).

   [preserve] lists extra modes whose verdict *class* every candidate
   must keep: reducing a mode-specific bug can otherwise drift into a
   different bug class (e.g. an old-undef counterexample degenerating
   into a poison bug that the proposed semantics also rejects), which
   would make the witness lie about which semantics it indicts. *)
let minimize_cex ?cache ?inputs ?max_steps ?(preserve : Mode.t list = [])
    (mode : Mode.t) ~(src : Func.t) ~(tgt : Func.t) : reduction option =
  if not (not_refined ?cache ?inputs mode ~src ~tgt) then None
  else begin
    let class_under m ~src ~tgt =
      Verdict_cache.kind @@ Ub_exec.Pool.Done
        (try
           check_cached ?cache ?inputs ~max_universal_bits:reduce_universal_bits
             ~max_conflicts:reduce_conflicts m ~src ~tgt
         with _ -> Checker.Unknown "checker raised")
    in
    let profile = List.map (fun m -> (m, class_under m ~src ~tgt)) preserve in
    let oracle s t =
      Ub_obs.Obs.with_span "shrink.oracle" @@ fun () ->
      not_refined ?cache ?inputs mode ~src:s ~tgt:t
      && List.for_all (fun (m, cls) -> class_under m ~src:s ~tgt:t = cls) profile
    in
    let (red_src, red_tgt), stats =
      Ub_shrink.Reduce.minimize_pair ?max_steps ~oracle (src, tgt)
    in
    Some
      { red_src;
        red_tgt;
        stats;
        verdict = check_cached ?cache ?inputs mode ~src:red_src ~tgt:red_tgt;
      }
  end

(* Batch reduction over the worker pool: one task per failing pair.
   Result order matches the input; a crashed or timed-out reduction
   degrades to [None] for its pair only. *)
let minimize_corpus ?(jobs = 1) ?timeout_s ?cache ?max_steps (mode : Mode.t)
    (pairs : (Func.t * Func.t) array) : reduction option array * Ub_exec.Pool.stats =
  let results, pool =
    Ub_exec.Pool.map_stats ~jobs ?timeout_s
      (fun (src, tgt) -> minimize_cex ?cache ?max_steps mode ~src ~tgt)
      pairs
  in
  ( Array.map
      (function Ub_exec.Pool.Done r -> r | Ub_exec.Pool.Crashed _ | Ub_exec.Pool.Timed_out -> None)
      results,
    pool )
