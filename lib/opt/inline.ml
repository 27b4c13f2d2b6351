(* Function inlining.

   Small defined callees are cloned into the caller: arguments substitute
   parameters, the callee's blocks are spliced in with fresh names, and
   returns become branches to a continuation block (with a phi when the
   callee returns a value).

   Cost model: instruction count, with freeze counting ZERO in the
   [Prototype] pipeline — the paper's Section 6 change "we changed the
   inliner to recognize freeze instructions as zero cost ... to avoid
   changing the behavior of the inliner as much as possible".  Without
   it, freeze instructions introduced by the fixed passes would push
   callees over the threshold and perturb inlining decisions.  The
   [Baseline] pipeline counts a freeze like any instruction. *)

open Ub_ir
open Instr

let threshold = 30

let callee_cost (cfg : Pass.config) (fn : Func.t) : int =
  List.fold_left
    (fun acc (b : Func.block) ->
      acc + 1
      + List.length
          (List.filter
             (fun n ->
               match n.Instr.ins with
               | Freeze _ -> cfg.Pass.pipeline = Pass.Baseline
               | _ -> true)
             b.insns))
    0 fn.blocks

(* Splice [callee] into [caller] at the call site [call_block]/[idx]. *)
let inline_call (caller : Func.t) (callee : Func.t) ~(call_block : Instr.label)
    ~(call_def : Instr.var option) ~(args : (Types.t * operand) list) : Func.t =
  let suffix = ".inl" ^ string_of_int (Hashtbl.hash (caller.Func.name, call_block, call_def)) in
  (* rename callee locals *)
  let callee_defs =
    List.map fst (Func.defs callee)
  in
  let param_map = List.map2 (fun (p, _) (_, a) -> (p, a)) callee.Func.args args in
  let rename_var v = v ^ suffix in
  let rename_label l = l ^ suffix in
  let rename_op = function
    | Var v -> (
      match List.assoc_opt v param_map with
      | Some a -> a
      | None -> if List.mem v callee_defs then Var (rename_var v) else Var v)
    | Const _ as c -> c
  in
  let cont_label = rename_label "cont" in
  let ret_sites = ref [] in
  let callee_blocks =
    List.map
      (fun (b : Func.block) ->
        let insns =
          List.map
            (fun n ->
              let ins =
                match n.Instr.ins with
                | Phi (ty, inc) ->
                  Phi (ty, List.map (fun (v, l) -> (rename_op v, rename_label l)) inc)
                | ins -> Instr.map_operands rename_op ins
              in
              { Instr.def = Option.map rename_var n.Instr.def; ins })
            b.insns
        in
        let term =
          match b.term with
          | Ret (_, x) ->
            ret_sites := (rename_label b.label, Some (rename_op x)) :: !ret_sites;
            Br cont_label
          | Ret_void ->
            ret_sites := (rename_label b.label, None) :: !ret_sites;
            Br cont_label
          | t -> Instr.map_term_labels rename_label (Instr.map_term_operands rename_op t)
        in
        { Func.label = rename_label b.label; insns; term })
      callee.Func.blocks
  in
  (* split the call block *)
  let cb = Func.find_block_exn caller call_block in
  let before, call_and_after =
    let rec split acc = function
      | [] -> (List.rev acc, [])
      | n :: rest when n.Instr.def = call_def
                       && (match n.Instr.ins with Call _ -> true | _ -> false) ->
        (List.rev acc, n :: rest)
      | n :: rest -> split (n :: acc) rest
    in
    split [] cb.insns
  in
  match call_and_after with
  | [] -> caller (* call not found; shouldn't happen *)
  | _ when !ret_sites = [] ->
    (* callee never returns (all paths unreachable): leave the call *)
    caller
  | call_insn :: after ->
    let entry_label = rename_label (Func.entry callee).Func.label in
    let head = { cb with Func.insns = before; term = Br entry_label } in
    (* continuation: phi of return values if needed, then the rest *)
    let cont_insns =
      match (call_def, callee.Func.ret_ty) with
      | Some d, Some ty when !ret_sites <> [] ->
        [ { Instr.def = Some d;
            ins =
              Phi
                ( ty,
                  List.map
                    (fun (l, v) -> ((match v with Some v -> v | None -> assert false), l))
                    !ret_sites );
          }
        ]
      | _ -> []
    in
    ignore call_insn;
    let cont = { Func.label = cont_label; insns = cont_insns @ after; term = cb.Func.term } in
    (* phis in successors of the original call block must now name the
       continuation block *)
    let fix_phi (b : Func.block) =
      { b with
        Func.insns =
          List.map
            (fun n ->
              match n.Instr.ins with
              | Phi (ty, inc) ->
                { n with
                  Instr.ins =
                    Phi (ty, List.map (fun (v, l) -> (v, if l = call_block then cont_label else l)) inc);
                }
              | _ -> n)
            b.Func.insns;
      }
    in
    let blocks =
      List.concat_map
        (fun (b : Func.block) ->
          if b.Func.label = call_block then (head :: callee_blocks) @ [ cont ]
          else [ fix_phi b ])
        caller.Func.blocks
    in
    { caller with Func.blocks = blocks }

let run_module (cfg : Pass.config) (m : Func.module_) : Func.module_ =
  let funcs =
    List.map
      (fun (caller : Func.t) ->
        (* inline at most a few sites per function per run *)
        let budget = ref 4 in
        let rec go caller =
          if !budget <= 0 then caller
          else begin
            let site =
              List.find_map
                (fun (b : Func.block) ->
                  List.find_map
                    (fun n ->
                      match n.Instr.ins with
                      | Call (_, callee_name, args) when callee_name <> caller.Func.name -> (
                        match Func.find_func m callee_name with
                        | Some callee
                          when callee_cost cfg callee <= threshold
                               && (not (Func.equal callee caller))
                               && List.for_all
                                    (fun (c : Func.block) ->
                                      List.for_all
                                        (fun n ->
                                          match n.Instr.ins with
                                          | Call (_, c2, _) -> c2 <> callee_name
                                          | _ -> true)
                                        c.Func.insns)
                                    callee.Func.blocks ->
                          Some (b.Func.label, n.Instr.def, args, callee)
                        | _ -> None)
                      | _ -> None)
                    b.Func.insns)
                caller.Func.blocks
            in
            match site with
            | None -> caller
            | Some (call_block, call_def, args, callee) ->
              decr budget;
              go (inline_call caller callee ~call_block ~call_def ~args)
          end
        in
        go caller)
      m.Func.funcs
  in
  { Func.funcs }
