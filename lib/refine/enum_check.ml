(* Refinement checking by exhaustive enumeration: compute the complete
   behaviour sets of source and target on every input (over a small input
   space) and check trace-and-result inclusion.  Slow but fully general —
   loops, memory, calls, vectors, every semantics mode — and therefore
   also the ground truth that the SAT-based checker is property-tested
   against. *)

open Ub_support
open Ub_ir
open Ub_sem

type verdict =
  | Refines
  | Counterexample of { args : Value.t list; witness : string }
  | Unknown of string

let event_covers (Interp.Call_event (ns, args_s)) (Interp.Call_event (nt, args_t)) =
  ns = nt
  && List.length args_s = List.length args_t
  && List.for_all2 (fun s t -> Value.covers ~src:s ~tgt:t) args_s args_t

(* Does source behaviour [s] cover target behaviour [t]?  Source UB
   covers everything.  Otherwise all three must hold:
   - the event traces have equal length and are covered pointwise (same
     callee, every argument covered by Value.covers); a covered prefix
     is not enough;
   - the final memories are covered byte by byte with provenance
     observed (Memory.image_covers ~prov:true);
   - the outcomes agree: a returned value covers by Value.covers, and a
     timeout covers only a timeout.  Programs in the experiments
     terminate well within fuel. *)
let behavior_covers (s : Interp.Behaviors.behavior) (t : Interp.Behaviors.behavior) =
  match s.Interp.Behaviors.b_outcome with
  | Interp.Ub _ -> true
  | outcome_s -> (
    List.length s.b_events = List.length t.b_events
    && List.for_all2 event_covers s.b_events t.b_events
    && Memory.image_covers ~prov:true ~src:s.b_mem ~tgt:t.b_mem
    &&
    match (outcome_s, t.b_outcome) with
    | Interp.Returned None, Interp.Returned None -> true
    | Interp.Returned (Some vs), Interp.Returned (Some vt) -> Value.covers ~src:vs ~tgt:vt
    | Interp.Timeout, Interp.Timeout -> true (* both diverge within fuel *)
    | _, _ -> false)

(* A source UB behaviour covers every target behaviour, so on a (tuple,
   phase) whose source set holds one the target need not be enumerated:
   no verdict can come from it.  The target is not run there, so a
   target that would exhaust [max_runs] only on such tuples no longer
   makes the check [Unknown].  [Tv] keeps enumerating the machine side
   on those tuples, because its target-side drops (timeout, unsupported
   construct, exhausted enumeration) are verdicts of their own. *)
let source_ub (b : Interp.Behaviors.behavior) =
  match b.b_outcome with Interp.Ub _ -> true | Interp.Returned _ | Interp.Timeout -> false

(* All argument tuples for a function over small integer types, or
   [None] when an argument type is not enumerable or there would be more
   than [max_inputs] tuples.  Poison and (mode-dependent) undef are
   included, as Alive does.  The tuples are counted before any is built:
   four i8 arguments alone make about 4.4e9 of them. *)
let input_space ~(mode : Mode.t) ~max_inputs (fn : Func.t) : Value.t list list option =
  let arg_values (ty : Types.t) : Value.t list option =
    match ty with
    | Types.Int w when w <= 8 ->
      let concs = List.map (fun bv -> Value.of_bitvec bv) (Bitvec.all ~width:w) in
      let extra =
        Value.Scalar Value.Poison
        :: (if mode.Mode.undef_enabled then [ Value.Scalar Value.Undef ] else [])
      in
      Some (concs @ extra)
    | _ -> None
  in
  let rec values = function
    | [] -> Some []
    | (_, ty) :: rest -> (
      match (arg_values ty, values rest) with
      | Some vs, Some vss -> Some (vs :: vss)
      | _ -> None)
  in
  let rec build = function
    | [] -> [ [] ]
    | vs :: rest ->
      let tails = build rest in
      List.concat_map (fun v -> List.map (fun t -> v :: t) tails) vs
  in
  match values fn.args with
  | None -> None
  | Some per_arg -> (
    (* n * k <= max_inputs without overflow: every k is at least 1 *)
    let count =
      List.fold_left
        (fun acc vs ->
          let k = List.length vs in
          match acc with Some n when n <= max_inputs / k -> Some (n * k) | _ -> None)
        (Some 1) per_arg
    in
    match count with Some n when n <= max_inputs -> Some (build per_arg) | _ -> None)

(* Does the function allocate?  Only allocating programs are sensitive
   to the memory phase, so everything else is checked under the
   (default) infinite phase alone. *)
let uses_alloc (fn : Func.t) =
  List.exists
    (fun (b : Func.block) ->
      List.exists
        (fun (n : Instr.named) ->
          match n.Instr.ins with
          | Instr.Call (_, callee, _) -> Interp.is_malloc callee
          | _ -> false)
        b.Func.insns)
    fn.Func.blocks

(* The phases a pair is checked under.  Refinement must hold in *every*
   phase, with source and target run under the same phase (Beck et al.,
   arXiv 2404.16143): the finite phases refute rewrites that trade heap
   for stack or otherwise change how allocation failure surfaces.
   [Finite 0] is the degenerate machine where every allocation fails;
   [Finite 16] lets small programs allocate a little before running
   out. *)
let phases_for ~(src : Func.t) ~(tgt : Func.t) : Memory.phase list =
  if uses_alloc src || uses_alloc tgt then
    [ Memory.Infinite; Memory.Finite 0; Memory.Finite 16 ]
  else [ Memory.Infinite ]

let phase_to_string = function
  | Memory.Infinite -> "infinite"
  | Memory.Finite n -> Printf.sprintf "finite(%d)" n

let check ?(mode = Mode.proposed) ?(fuel = 5_000) ?(max_runs = 50_000) ?inputs ~(src : Func.t)
    ~(tgt : Func.t) () : verdict =
  Ub_obs.Obs.with_span "refine.enum_check" @@ fun () ->
  if List.map snd src.args <> List.map snd tgt.args then Unknown "argument types differ"
  else begin
    let tuples =
      match inputs with
      | Some ts -> Some ts
      | None -> input_space ~mode ~max_inputs:5_000 src
    in
    match tuples with
    | None -> Unknown "input space too large or not enumerable"
    | Some tuples -> (
      let phases = phases_for ~src ~tgt in
      let src_p = Interp.prepare ~mode src in
      let tgt_p = Interp.prepare ~mode tgt in
      (* the counterexample on one (tuple, phase), if any *)
      let uncovered args phase =
        let behs_src = Interp.Behaviors.enumerate ~fuel ~max_runs ~phase src_p args in
        if List.exists source_ub behs_src then begin
          Ub_obs.Obs.count "refine.enum_tgt_skipped";
          None
        end
        else
          let behs_tgt = Interp.Behaviors.enumerate ~fuel ~max_runs ~phase tgt_p args in
          List.find_opt
            (fun bt -> not (List.exists (fun bs -> behavior_covers bs bt) behs_src))
            behs_tgt
          |> Option.map (fun bt ->
                 Counterexample
                   { args;
                     witness =
                       Printf.sprintf
                         "target behaviour not covered in %s phase: %s (source has %d \
                          behaviour(s): %s)"
                         (phase_to_string phase)
                         (Interp.Behaviors.to_string bt)
                         (List.length behs_src)
                         (String.concat " | "
                            (List.map Interp.Behaviors.to_string
                               (Ub_support.Util.take 4 behs_src)));
                   })
      in
      try
        match List.find_map (fun args -> List.find_map (uncovered args) phases) tuples with
        | Some cex -> cex
        | None -> Refines
      with Oracle.Exhausted -> Unknown "behaviour space too large")
  end
