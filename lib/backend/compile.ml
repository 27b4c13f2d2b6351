(* The end of the pipeline: IR function -> allocated MIR, plus the
   measurements the evaluation needs (object size, simulated cycles). *)

open Ub_ir

type compiled = {
  pre_ra : Mir.func; (* virtual-register MIR, straight out of isel *)
  mir : Mir.func; (* physical-register MIR, after allocation *)
  arg_locs : Mir.arg_loc list; (* where each argument vreg landed *)
  asm : string;
  obj_size : int; (* bytes *)
  bug_inert : bool;
      (* the injected bug, if any, left the MIR of its stage as it was
         ([Mir_inject.changed] is false across [b_apply]); true without
         a bug *)
}

(* Arguments get the first virtual registers, one per lane. *)
let arg_vregs (fn : Func.t) =
  List.fold_left
    (fun acc (_, ty) -> acc + (match ty with Types.Vec (n, _) -> n | _ -> 1))
    0 fn.Func.args

(* Compile with an optional injected backend bug ([Mir_inject]), applied
   either to the virtual-register form (pre-RA) or the allocated form
   (post-RA) depending on the bug's declared stage.  The function just
   before and just after [b_apply] is compared there, so one compile
   tells whether the bug perturbed this function at all. *)
let compile_func ?bug (fn : Func.t) : compiled =
  let nargs = arg_vregs fn in
  let inject stage (m : Mir.func) =
    match bug with
    | Some (b : Mir_inject.bug) when b.Mir_inject.b_stage = stage ->
      let m' = b.Mir_inject.b_apply m in
      (m', not (Mir_inject.changed m m'))
    | _ -> (m, true)
  in
  let pre_ra = Ub_obs.Obs.with_span "backend.isel" (fun () -> Isel.lower_func fn) in
  let pre_ra, inert_pre = inject Mir_inject.Pre_ra pre_ra in
  let mir, arg_locs =
    Ub_obs.Obs.with_span "backend.regalloc" (fun () -> Regalloc.run pre_ra ~nargs)
  in
  let mir, inert_post = inject Mir_inject.Post_ra mir in
  { pre_ra;
    mir;
    arg_locs;
    asm = Emit.func_str mir;
    obj_size = Emit.func_size mir;
    bug_inert = inert_pre && inert_post;
  }

let compile_module (m : Func.module_) : (string * compiled) list =
  List.map (fun (f : Func.t) -> (f.Func.name, compile_func f)) m.Func.funcs

(* Simulated running time: profile the IR (block execution counts), then
   price the compiled blocks.  [fn] must be the same function the MIR was
   compiled from. *)
let simulate_cycles (p : Target.profile) (c : compiled) ~(profile : (string * int) list) : float =
  Cost.simulate p c.mir profile
