(* The refinement checker: does [tgt] refine [src] under a semantics
   mode?  This is the tool the paper uses (via Alive + opt-fuzz,
   Section 6) to validate optimizations against the proposed semantics,
   and the engine behind our Section-3 soundness matrix.

   Verification condition (counterexample search):

     exists inputs, target-choices .
       forall source-choices .
         not ( UB_src  \/  ( not UB_tgt  /\ covers ) )

   where covers = p_src \/ (not p_tgt /\ (u_src \/ (not u_tgt /\ v_src = v_tgt))).

   Source choices (undef materializations, freeze picks, nondet branch
   directions) are eliminated by bounded expansion; target choices are
   ordinary existentials in the SAT query.  The source is encoded once,
   with a fresh circuit input per bit of choice, and the body of the
   quantifier is built once over those inputs.  Expansion conjoins one
   cofactor of that body per assignment to the bits it depends on
   ([Circuit.cofactor]), rebuilding only the choice-dependent cone, and
   stops as soon as the conjunction folds to false.  The expansion
   budget, [max_universal_bits], bounds that support, not the raw
   number of choice bits: a source may carry many choices its body
   never reads. *)

open Ub_support
open Ub_ir
open Ub_sem
open Ub_smt
module Obs = Ub_obs.Obs

type verdict = Enum_check.verdict =
  | Refines
  | Counterexample of { args : Value.t list; witness : string }
  | Unknown of string

let verdict_to_string = function
  | Refines -> "refines"
  | Counterexample { args; witness } ->
    Printf.sprintf "COUNTEREXAMPLE args=(%s): %s"
      (String.concat ", " (List.map Value.to_string args))
      witness
  | Unknown r -> "unknown: " ^ r

(* Choice providers.  A site whose [cond] is constant false can never
   observe its choice and is declined; every other site gets a fresh
   input vector, which [record] sees.  [counting_choices] records each
   site's width ([None] for a declined site) in [trace]. *)
let recording_choices ctx (record : Bvterm.t option -> unit) : Encode.choice_fn =
  { Encode.choose =
      (fun ~width ~cond ->
        let c = if Circuit.is_false cond then None else Some (Bvterm.fresh ctx ~width) in
        record c;
        c)
  }

let counting_choices ctx (trace : int option list ref) : Encode.choice_fn =
  recording_choices ctx (fun c -> trace := Option.map Array.length c :: !trace)

let fresh_choices ctx : Encode.choice_fn = recording_choices ctx ignore

(* The stock SAT budgets.  Named so budget-aware callers (the verdict
   cache key, reduction oracles) can refer to the same numbers instead
   of restating them. *)
let default_max_universal_bits = 12
let default_max_conflicts = 300_000

(* Why the SAT path gave up on a query, for the hand-off counters. *)
type hand_off = Budget_bits | Conflicts | Unsupported | Signature

let hand_off_counter = function
  | Budget_bits -> "refine.fallback.budget_bits"
  | Conflicts -> "refine.fallback.conflicts"
  | Unsupported -> "refine.fallback.unsupported"
  | Signature -> "refine.fallback.signature"

(* A SAT model's arguments, confirmed by concrete interpretation: the
   enumeration checker runs both functions on exactly [args], and its
   witness (the uncovered target behaviour and the source's) becomes the
   counterexample's.  Arguments on which the target does refine the
   source mean the encoding and the interpreter disagree; that is
   [Unknown], counted, and never a [Counterexample].  Enumeration can
   also fail to finish on them (an undef argument used twice at i8 is
   already 65,536 runs); the SAT counterexample then stands, counted
   as not replayed, and its witness says why. *)
let replay (mode : Mode.t) ~(src : Func.t) ~(tgt : Func.t) (args : Value.t list) : verdict =
  Obs.with_span "refine.replay" @@ fun () ->
  match Enum_check.run ~mode ~inputs:[ args ] ~src ~tgt () with
  | Counterexample _ as cex -> cex
  | Refines ->
    Obs.count "refine.cex_unconfirmed";
    Unknown "checker bug: SAT counterexample did not replay"
  | Unknown r ->
    Obs.count "refine.cex_unreplayed";
    Counterexample { args; witness = "SAT model of the refinement violation (not replayed: " ^ r ^ ")" }

(* The SAT path: a definite verdict, or the reason it handed off. *)
let sat_verdict ?(max_universal_bits = default_max_universal_bits)
    ?(max_conflicts = default_max_conflicts) ?stats (mode : Mode.t) ~(src : Func.t)
    ~(tgt : Func.t) : (verdict, hand_off * string) result =
  Obs.with_span "refine.check_sat" @@ fun () ->
  if List.map snd src.args <> List.map snd tgt.args then
    Error (Signature, "argument types differ")
  else if src.ret_ty <> tgt.ret_ty then Error (Signature, "return types differ")
  else
    try
      let ctx = Circuit.create_ctx () in
      (* shared inputs: per argument a (value, poison, undef) triple *)
      let args_syms =
        List.map
          (fun (v, ty) ->
            let w = Encode.int_width ty in
            ( v,
              ty,
              { Encode.v = Bvterm.fresh ctx ~width:w;
                p = Circuit.fresh ctx;
                u = (if mode.Mode.undef_enabled then Circuit.fresh ctx else Circuit.bfalse);
              } ))
          src.args
      in
      let src_args = List.map (fun (v, _, s) -> (v, s)) args_syms in
      let tgt_args =
        List.map2 (fun (_, _, s) (v, _) -> (v, s)) args_syms tgt.args
      in
      (* encode the source once, over a fresh input per bit of
         universal choice *)
      let choice_bits = ref [] in
      let senc =
        Obs.with_span "refine.count_choices" @@ fun () ->
        Encode.encode ctx mode
          (recording_choices ctx (Option.iter (fun c -> choice_bits := c :: !choice_bits)))
          ~args:src_args src
      in
      let vars = Array.concat (List.rev !choice_bits) in
      match
        Obs.with_span "refine.expand" @@ fun () ->
        (* encode target once, with existential choices *)
        let tenc = Encode.encode ctx mode (fresh_choices ctx) ~args:tgt_args tgt in
        let covers =
          match (senc.ret, tenc.ret) with
          | None, None -> Circuit.btrue
          | Some rs, Some rt ->
            Circuit.bor ctx rs.Encode.p
              (Circuit.band ctx
                 (Circuit.bnot ctx rt.Encode.p)
                 (Circuit.bor ctx rs.Encode.u
                    (Circuit.band ctx
                       (Circuit.bnot ctx rt.Encode.u)
                       (Bvterm.eq ctx rs.Encode.v rt.Encode.v))))
          | _ -> Circuit.bfalse
        in
        let body =
          Circuit.bnot ctx
            (Circuit.bor ctx senc.ub (Circuit.band ctx (Circuit.bnot ctx tenc.ub) covers))
        in
        (* the universal quantifier, expanded: conjoin one cofactor of
           the body per assignment to the choice bits it depends on
           (a bit it ignores quantifies nothing), walked in Gray code
           order so that each step rebuilds only the cone of the one
           bit that flipped.  Once the conjunction folds to false no
           assignment can revive it.  The budget caps that support:
           [cofactor] raises as soon as the body reads one bit more. *)
        let cf = Circuit.cofactor ctx ~max_support:max_universal_bits ~vars body in
        let n = 1 lsl Array.length cf.Circuit.support in
        let rec conj acc i =
          if i = n || Circuit.is_false acc then begin
            Obs.count ~by:i "refine.expand.assignments";
            acc
          end
          else conj (Circuit.band ctx acc (Circuit.cofactor_apply cf (i lxor (i lsr 1)))) (i + 1)
        in
        conj Circuit.btrue 0
      with
      | exception Circuit.Support_exceeds k ->
        Error
          ( Budget_bits,
            Printf.sprintf
              "refinement reads at least %d of the source's %d bits of nondeterministic \
               choice (max %d)"
              k (Array.length vars) max_universal_bits )
      | cex -> (
        match Circuit.Cnf.solve ~max_conflicts ?stats ctx cex with
        | Circuit.Cnf.Unsat_r -> Ok Refines
        | Circuit.Cnf.Sat_model model ->
          let args =
            Obs.with_span "refine.decode" @@ fun () ->
            List.map
              (fun (_, ty, sym) ->
                let w = Encode.int_width ty in
                if Circuit.eval model.bool_of_input sym.Encode.p then
                  Value.Scalar Value.Poison
                else if
                  (not (Circuit.is_false sym.Encode.u))
                  && Circuit.eval model.bool_of_input sym.Encode.u
                then Value.Scalar Value.Undef
                else begin
                  let bv = ref (Bitvec.zero w) in
                  Array.iteri
                    (fun i bit ->
                      if Circuit.eval model.bool_of_input bit then
                        bv := Bitvec.set_bit !bv i true)
                    sym.Encode.v;
                  Value.Scalar (Value.Conc !bv)
                end)
              args_syms
          in
          Ok (replay mode ~src ~tgt args))
    with
    | Encode.Unsupported r -> Error (Unsupported, "not encodable: " ^ r)
    | Circuit.Cnf.Too_hard -> Error (Conflicts, "SAT budget exceeded")

let check_sat ?max_universal_bits ?max_conflicts ?stats (mode : Mode.t) ~(src : Func.t)
    ~(tgt : Func.t) : verdict =
  match sat_verdict ?max_universal_bits ?max_conflicts ?stats mode ~src ~tgt with
  | Ok v -> v
  | Error (_, r) -> Unknown r

(* Combined checker: try the SAT path, fall back to enumeration when it
   hands off (outside the encodable fragment, over a budget, or a
   signature mismatch).  The hand-off reason is counted even when
   enumeration then decides, since the verdict no longer shows it. *)
let check ?max_universal_bits ?max_conflicts ?inputs (mode : Mode.t) ~(src : Func.t)
    ~(tgt : Func.t) : verdict =
  Obs.with_span "refine.check" @@ fun () ->
  let counted (v : verdict) : verdict =
    Obs.count
      (match v with
      | Refines -> "refine.verdict_refines"
      | Counterexample _ -> "refine.verdict_cex"
      | Unknown _ -> "refine.verdict_unknown");
    v
  in
  counted
  @@
  match inputs with
  | Some _ ->
    (* explicit inputs: enumeration only *)
    Enum_check.check ~mode ?inputs ~src ~tgt ()
  | None -> (
    match sat_verdict ?max_universal_bits ?max_conflicts mode ~src ~tgt with
    | Ok v -> v
    | Error (why, sat_reason) -> (
      Obs.count (hand_off_counter why);
      match Enum_check.check ~mode ~src ~tgt () with
      | (Refines | Counterexample _) as v -> v
      | Unknown enum_reason ->
        Unknown (Printf.sprintf "SAT: %s; enumeration: %s" sat_reason enum_reason)))
