(* Typed adapter between [Checker.verdict] and the raw-string
   [Ub_exec.Cache].  The cache key is the canonical hash of

     (printed source fn, printed target fn, semantics mode, checker kind,
      SAT budget [, explicit input tuples])

   where the functions are printed from their parsed form, so textual
   noise in the original IR (whitespace, comment placement) cannot split
   cache entries for the same function.  The SAT budget is part of the
   key because a verdict is only as strong as the search that produced
   it: the shrink oracles deliberately run with reduced universal-expansion
   and conflict budgets, and serving one of their entries to a
   full-budget caller (or vice versa) would silently change what a
   "Refines" means.  [Unknown] verdicts are never cached: they depend on
   resource budgets, and a later run with a bigger budget (or a fixed
   encoder) should get the chance to do better. *)

open Ub_ir
open Ub_sem

let magic = "UBVC1\n"

(* The checker-kind component of the key.  Bump when a checker's verdict
   semantics change incompatibly.  v2: the SAT budget joined the key, so
   every v1 entry (ambiguous about its budget) must be invalidated.  v3
   (combined only): the [ub=] field bounds the choice bits the
   refinement body reads, no longer the source's raw choice bits, so a
   v2 entry means a different budget.  Enumeration ignores the budget
   and keeps its tag. *)
let combined_kind = "combined-v3"
let enum_kind = "enum-v2"

let key ?(inputs : Value.t list list option)
    ?(max_universal_bits = Checker.default_max_universal_bits)
    ?(max_conflicts = Checker.default_max_conflicts) ~(mode : Mode.t)
    ~(kind : string) ~(src : Func.t) ~(tgt : Func.t) () : string =
  let parts =
    [ Printer.func_to_string src;
      Printer.func_to_string tgt;
      mode.Mode.name;
      kind;
      Printf.sprintf "ub=%d,mc=%d" max_universal_bits max_conflicts;
      (match inputs with
      | None -> ""
      | Some ts ->
        String.concat ";"
          (List.map (fun args -> String.concat "," (List.map Value.to_string args)) ts));
    ]
  in
  Ub_exec.Cache.key ~parts

let encode (v : Checker.verdict) : string = magic ^ Marshal.to_string v []

let decode (s : string) : Checker.verdict option =
  let m = String.length magic in
  if String.length s > m && String.sub s 0 m = magic then
    try Some (Marshal.from_string s m : Checker.verdict) with _ -> None
  else None

let cacheable = function Checker.Unknown _ -> false | Checker.Refines | Checker.Counterexample _ -> true

let find (cache : Ub_exec.Cache.t) k : Checker.verdict option =
  let module Obs = Ub_obs.Obs in
  match Ub_exec.Cache.find cache k with
  | None ->
    Obs.count "verdict_cache.miss";
    None
  | Some s -> (
    match decode s with
    | Some _ as v ->
      Obs.count "verdict_cache.hit";
      v
    | None ->
      (* present but undecodable (magic/format drift): a miss for the
         caller, but worth its own counter — a high stale rate means the
         on-disk cache is full of dead entries *)
      Obs.count "verdict_cache.stale";
      Obs.count "verdict_cache.miss";
      None)

let store (cache : Ub_exec.Cache.t) k (v : Checker.verdict) : unit =
  if cacheable v then begin
    Ub_obs.Obs.count "verdict_cache.store";
    Ub_exec.Cache.store cache k (encode v)
  end
