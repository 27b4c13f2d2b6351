(* Bulk refinement checking: run an array of (source, target) pairs
   through the worker pool under one semantics mode, memoizing verdicts
   in the persistent cache.  This is the engine behind the opt-fuzz
   validation sweep (Section 6): the corpus is embarrassingly parallel
   and largely stable across runs, so re-running an enlarged sweep only
   pays for the new pairs.

   Verdict order matches the input array regardless of [jobs] or cache
   state; a crashed or timed-out worker task degrades only its own pair
   to [Checker.Unknown]. *)

open Ub_ir
open Ub_sem

type kind = Combined | Sat_only | Enum_only

let kind_tag = function
  | Combined -> Verdict_cache.combined_kind
  | Sat_only -> Verdict_cache.sat_kind
  | Enum_only -> Verdict_cache.enum_kind

let check_one (kind : kind) (mode : Mode.t) ~(src : Func.t) ~(tgt : Func.t) :
    Checker.verdict =
  match kind with
  | Combined -> Checker.check mode ~src ~tgt
  | Sat_only -> Checker.check_sat mode ~src ~tgt
  | Enum_only -> (
    match Enum_check.check ~mode ~src ~tgt () with
    | Enum_check.Refines -> Checker.Refines
    | Enum_check.Counterexample { args; witness } -> Checker.Counterexample { args; witness }
    | Enum_check.Unknown r -> Checker.Unknown r)

type report = {
  verdicts : Checker.verdict array;
  pool : Ub_exec.Pool.stats;
  cache_hits : int;
  cache_misses : int;
}

let check_pairs ?(kind = Combined) ?(jobs = 1) ?timeout_s ?(cache : Ub_exec.Cache.t option)
    (mode : Mode.t) (pairs : (Func.t * Func.t) array) : report =
  let hits0 = match cache with Some c -> Ub_exec.Cache.hits c | None -> 0 in
  let misses0 = match cache with Some c -> Ub_exec.Cache.misses c | None -> 0 in
  let key_of (src, tgt) =
    Verdict_cache.key ~mode ~kind:(kind_tag kind) ~src ~tgt ()
  in
  let cached =
    Array.map
      (fun pair ->
        match cache with None -> None | Some c -> Verdict_cache.find c (key_of pair))
      pairs
  in
  let fresh_idx =
    Array.to_list (Array.mapi (fun i c -> (i, c)) cached)
    |> List.filter_map (fun (i, c) -> if c = None then Some i else None)
    |> Array.of_list
  in
  let fresh, pool =
    Ub_exec.Pool.map_stats ~jobs ?timeout_s
      (fun i ->
        let src, tgt = pairs.(i) in
        check_one kind mode ~src ~tgt)
      fresh_idx
  in
  let verdicts = Array.make (Array.length pairs) (Checker.Unknown "pending") in
  Array.iteri (fun i c -> match c with Some v -> verdicts.(i) <- v | None -> ()) cached;
  Array.iteri
    (fun j r ->
      let i = fresh_idx.(j) in
      let v =
        match r with
        | Ub_exec.Pool.Done v -> v
        | Ub_exec.Pool.Crashed msg -> Checker.Unknown ("worker crashed: " ^ msg)
        | Ub_exec.Pool.Timed_out -> Checker.Unknown "task timed out"
      in
      verdicts.(i) <- v;
      match cache with Some c -> Verdict_cache.store c (key_of pairs.(i)) v | None -> ())
    fresh;
  { verdicts;
    pool;
    cache_hits = (match cache with Some c -> Ub_exec.Cache.hits c - hits0 | None -> 0);
    cache_misses = (match cache with Some c -> Ub_exec.Cache.misses c - misses0 | None -> 0);
  }
