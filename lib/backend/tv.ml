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
     with provenance stripped: MIR stores are provenance-free and loads
     pin bytes, so the lowering legitimately erases provenance.

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

let verdict_to_string = function
  | Refined -> "refined"
  | Not_refined { nr_detail; _ } -> "NOT refined: " ^ nr_detail
  | Unsupported r -> "unsupported: " ^ r

(* Strip the provenance suffix from a fingerprint entry
   ("addr=bbbbbbbb[*|@hex]" -> "addr=bbbbbbbb"). *)
let strip_prov entry =
  match String.index_opt entry '=' with
  | Some i when String.length entry >= i + 9 -> String.sub entry 0 (i + 9)
  | _ -> entry

let mem_covers_noprov src tgt =
  let split s = if s = "" then [] else String.split_on_char ';' s in
  let es = List.map strip_prov (split src) and et = List.map strip_prov (split tgt) in
  List.length es = List.length et && List.for_all2 Enum_check.mem_entry_covers es et

(* The IR return width, for truncating the machine result register. *)
let ret_width (fn : Func.t) : int option =
  List.find_map
    (fun (b : Func.block) ->
      match b.Func.term with Instr.Ret (ty, _) -> Some (Types.bitwidth ty) | _ -> None)
    fn.Func.blocks

exception Drop of string

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
    && mem_covers_noprov s.Interp.Behaviors.b_mem t.Mir_sem.b_mem
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
      (* lower once, and resolve both sides once for every input and phase *)
      let src, tgt =
        Ub_obs.Obs.with_span "tv.compile" @@ fun () ->
        let compiled =
          try Compile.compile_func ?bug fn
          with Isel.Unsupported r -> raise (Drop ("isel: " ^ r))
        in
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
                             bt.Mir_sem.b_mem (List.length src_behs);
                       })
                | None -> None)
              phases)
          tuples
      in
      match violation with Some v -> v | None -> Refined
    with Drop reason -> Unsupported reason
  in
  (match result with
  | Refined -> Ub_obs.Obs.count "tv.refined"
  | Not_refined _ -> Ub_obs.Obs.count "tv.violations"
  | Unsupported _ -> Ub_obs.Obs.count "tv.unsupported");
  result

(* Shrink a violating function with the generic IR reducer: a candidate
   is accepted while TV (with the same injected bug, if any) still
   reports a violation.  The reduced function *is* the witness — the
   "target" is always its own compilation. *)
let shrink ?mode ?(fuel = 250) ?(max_inputs = 400) ?(max_runs = 100)
    ?(max_steps = 600) ?(max_checks = 2_000) ?bug (fn : Func.t) :
    Func.t * Ub_shrink.Reduce.stats =
  (* The oracle runs a full TV check per candidate, so its budgets are
     much tighter than [check_func]'s defaults: a candidate whose input
     space grows past [max_inputs] (the reducer likes to promote values
     to fresh arguments) classifies Unsupported and is rejected without
     being enumerated, and [fuel]/[max_runs] are sized so a candidate
     whose machine loop diverges costs one bounded sweep, not minutes
     (the worst case per candidate is max_runs * 20 * fuel MIR steps).
     [max_checks] bounds the whole descent by a count, not a clock, so
     the witness does not depend on machine speed: once that many
     candidates have been checked the reducer stops at the current
     (still-violating) function. *)
  let oracle fn' =
    match check_func ?mode ~fuel ~max_inputs ~max_runs ?bug fn' with
    | Not_refined _ -> true
    | Refined | Unsupported _ -> false
  in
  Ub_shrink.Reduce.minimize ~max_steps ~max_oracle_calls:max_checks ~oracle fn
