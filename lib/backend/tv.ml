(* Translation validation across the lowering boundary: run an IR
   function under [Ub_sem.Interp] and its compiled MIR under [Mir_sem]
   on the same enumerated inputs and memory phases (shared with
   [Ub_refine.Enum_check]), and check that every target behaviour is
   covered by some source behaviour.

   Refinement at the MIR level:
   - source UB covers any target behaviour;
   - a returned source value covers the target's 64-bit result register
     truncated to the IR return width, by [Value.covers] (so a source
     poison/undef return covers any machine word — poison lowers to a
     pinned undef register, and the machine may hold anything);
   - final memories compare byte-wise with poison/undef covering, but
     with provenance ignored ([Memory.image_covers ~prov:false]): MIR
     stores are provenance-free and loads pin bytes, so the lowering
     legitimately erases provenance.

   Anything the MIR semantics cannot model — calls beyond the
   malloc/alloca/free intrinsic table, vector returns, non-enumerable
   input spaces, oracle or fuel exhaustion — classifies as [Unsupported]
   with a reason, never as silently refined.  [Tv] mirrors the hunt's
   completed-or-dropped accounting through the tv.* counters. *)

open Ub_support
open Ub_ir
open Ub_sem
open Ub_refine

type verdict =
  | Refined
  | Not_refined of { nr_args : Value.t list; nr_phase : string; nr_detail : string }
  | Unsupported of string
  | Inert (* the injected bug left this function's MIR unchanged *)

let verdict_to_string = function
  | Refined -> "refined"
  | Not_refined { nr_detail; _ } -> "NOT refined: " ^ nr_detail
  | Unsupported r -> "unsupported: " ^ r
  | Inert -> "inert: the injected bug does not change this function"

(* The IR return width, for truncating the machine result register. *)
let ret_width (fn : Func.t) : int option =
  List.find_map
    (fun (b : Func.block) ->
      match b.Func.term with Instr.Ret (ty, _) -> Some (Types.bitwidth ty) | _ -> None)
    fn.Func.blocks

exception Drop of string

exception Bug_inert

(* Static pre-scan for constructs the MIR semantics does not model. *)
let prescan (fn : Func.t) =
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun (n : Instr.named) ->
          match n.Instr.ins with
          | Instr.Call (_, callee, _)
            when not (Interp.is_malloc callee || Interp.is_free callee) ->
            raise (Drop (Printf.sprintf "call to @%s" callee))
          | _ -> ())
        b.Func.insns)
    fn.Func.blocks;
  match
    List.find_map
      (fun (b : Func.block) ->
        match b.Func.term with Instr.Ret (ty, _) -> Some ty | _ -> None)
      fn.Func.blocks
  with
  | Some (Types.Vec _) -> raise (Drop "vector return")
  | _ -> ()

(* Does source behaviour [s] cover machine behaviour [t]? *)
let covers ~ret_w (s : Interp.Behaviors.behavior) (t : Mir_sem.behavior) =
  match s.Interp.Behaviors.b_outcome with
  | Interp.Ub _ -> true
  | outcome_s ->
    s.Interp.Behaviors.b_events = []
    && Memory.image_covers ~prov:false ~src:s.Interp.Behaviors.b_mem ~tgt:t.Mir_sem.b_mem
    &&
    (match (outcome_s, t.Mir_sem.b_outcome) with
    | Interp.Returned None, Mir_sem.Returned None -> true
    | Interp.Returned (Some vs), Mir_sem.Returned (Some bv) -> (
      match ret_w with
      | Some w when w <= 64 ->
        Value.covers ~src:vs ~tgt:(Value.Scalar (Value.Conc (Bitvec.trunc bv ~width:w)))
      | _ -> false)
    | _, _ -> false)

let check_func ?(mode = Mode.proposed) ?(fuel = 5_000) ?(max_inputs = 5_000)
    ?(max_runs = 50_000) ?bug (fn : Func.t) : verdict =
  Ub_obs.Obs.with_span "backend.tv" @@ fun () ->
  Ub_obs.Obs.count "tv.checked";
  let result =
    try
      prescan fn;
      (* lower once, and resolve both sides once for every input and
         phase; a bug that did not change the MIR answers [Inert] from
         this one compile, without enumerating *)
      let src, tgt =
        Ub_obs.Obs.with_span "tv.compile" @@ fun () ->
        let compiled =
          try Compile.compile_func ?bug fn
          with Isel.Unsupported r -> raise (Drop ("isel: " ^ r))
        in
        if bug <> None && compiled.Compile.bug_inert then raise Bug_inert;
        ( Interp.prepare ~mode fn,
          Mir_sem.prepare ~form:(Mir_sem.Physical compiled.Compile.arg_locs)
            compiled.Compile.mir )
      in
      let tuples =
        match Enum_check.input_space ~mode ~max_inputs fn with
        | Some ts -> ts
        | None -> raise (Drop "input space too large or not enumerable")
      in
      let phases = Enum_check.phases_for ~src:fn ~tgt:fn in
      let ret_w = ret_width fn in
      let violation =
        List.find_map
          (fun args ->
            List.find_map
              (fun phase ->
                let src_behs =
                  try Interp.Behaviors.enumerate ~fuel ~max_runs ~phase src args
                  with Oracle.Exhausted -> raise (Drop "source behaviour space too large")
                in
                if
                  List.exists
                    (fun (b : Interp.Behaviors.behavior) -> b.b_outcome = Interp.Timeout)
                    src_behs
                then raise (Drop "source timeout");
                let tgt_behs =
                  try Mir_sem.enumerate ~fuel:(20 * fuel) ~max_runs ~phase tgt args with
                  | Oracle.Exhausted -> raise (Drop "target behaviour space too large")
                  | Mir_sem.Unsupported r -> raise (Drop r)
                in
                if
                  List.exists
                    (fun (b : Mir_sem.behavior) -> b.b_outcome = Mir_sem.Timeout)
                    tgt_behs
                then raise (Drop "target timeout");
                match
                  List.find_opt
                    (fun bt -> not (List.exists (fun bs -> covers ~ret_w bs bt) src_behs))
                    tgt_behs
                with
                | Some bt ->
                  Some
                    (Not_refined
                       { nr_args = args;
                         nr_phase = Enum_check.phase_to_string phase;
                         nr_detail =
                           Printf.sprintf
                             "machine behaviour not covered in %s phase on (%s): %s | mem:%s \
                              (source has %d behaviour(s))"
                             (Enum_check.phase_to_string phase)
                             (String.concat ", " (List.map Value.to_string args))
                             (Mir_sem.outcome_to_string bt.Mir_sem.b_outcome)
                             (Memory.image_to_string bt.Mir_sem.b_mem)
                             (List.length src_behs);
                       })
                | None -> None)
              phases)
          tuples
      in
      match violation with Some v -> v | None -> Refined
    with
    | Drop reason -> Unsupported reason
    | Bug_inert -> Inert
  in
  (* [tv.inert] is an event, so a trace records it too *)
  (match result with
  | Refined -> Ub_obs.Obs.count "tv.refined"
  | Not_refined _ -> Ub_obs.Obs.count "tv.violations"
  | Unsupported _ -> Ub_obs.Obs.count "tv.unsupported"
  | Inert -> Ub_obs.Obs.event "tv.inert");
  result

(* Shrink a violating function with the generic IR reducer: a candidate
   is accepted while TV (with the same injected bug, if any) still
   reports a violation.  The reduced function *is* the witness — the
   "target" is always its own compilation.  A candidate the bug does not
   change ([Inert]) is rejected from its one compile. *)
let shrink ?(max_steps = 600) ?(max_checks = 2_000) ?bug (fn : Func.t) :
    Func.t * Ub_shrink.Reduce.stats =
  (* The oracle runs a full TV check per candidate, under the proposed
     semantics, so its budgets are much tighter than [check_func]'s
     defaults: a candidate whose input space grows past 400 inputs (the
     reducer likes to promote values to fresh arguments) classifies
     Unsupported and is rejected without being enumerated, and the fuel
     and run budgets are sized so a candidate whose machine loop diverges
     costs one bounded sweep, not minutes (the worst case per candidate
     is 100 runs * 20 * 250 fuel MIR steps).  [max_checks] bounds the
     whole descent by a count, not a clock, so the witness does not
     depend on machine speed: once that many candidates have been
     checked the reducer stops at the current (still-violating)
     function. *)
  let oracle fn' =
    Ub_obs.Obs.with_span "shrink.oracle" @@ fun () ->
    match check_func ~fuel:250 ~max_inputs:400 ~max_runs:100 ?bug fn' with
    | Not_refined _ -> true
    | Refined | Unsupported _ | Inert -> false
  in
  Ub_shrink.Reduce.minimize ~max_steps ~max_oracle_calls:max_checks ~oracle fn
