(* Well-formedness checking: SSA structure, type correctness, and
   dominance of definitions over uses.  Every function built by the
   builder, emitted by a pass, produced by the fuzzer, or parsed from text
   is expected to validate; tests enforce this after every transformation. *)

open Instr

type error = string

let errf fmt = Printf.ksprintf (fun s -> s) fmt

(* -------------------- dominance (simple iterative) ----------------- *)

(* Dominator sets via the classic iterative dataflow; fine at validator
   scale.  The analysis library has the fast Cooper-Harvey-Kennedy tree. *)
let dominators (fn : Func.t) : (label, label list) Hashtbl.t =
  let labels = Func.block_labels fn in
  let entry = (Func.entry fn).label in
  let preds = Func.predecessors fn in
  (* edges from blocks unreachable from the entry carry no executions and
     must not weaken the meet (SCCP and SimplifyCFG legitimately leave
     unreachable blocks behind for DCE to collect) *)
  let reachable = Hashtbl.create 16 in
  let rec dfs l =
    if not (Hashtbl.mem reachable l) then begin
      Hashtbl.replace reachable l ();
      match Func.find_block fn l with
      | Some b -> List.iter dfs (Instr.successors b.term)
      | None -> ()
    end
  in
  dfs entry;
  let dom = Hashtbl.create 16 in
  Hashtbl.replace dom entry [ entry ];
  List.iter (fun l -> if l <> entry then Hashtbl.replace dom l labels) labels;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          let ps = match List.assoc_opt l preds with Some p -> p | None -> [] in
          let ps = List.filter (Hashtbl.mem reachable) ps in
          let meet =
            match ps with
            | [] -> [] (* unreachable: dominated by nothing reachable *)
            | p :: rest ->
              List.fold_left
                (fun acc q -> List.filter (fun x -> List.mem x (Hashtbl.find dom q)) acc)
                (Hashtbl.find dom p) rest
          in
          let new_dom = l :: List.filter (fun x -> x <> l) meet in
          if new_dom <> Hashtbl.find dom l then begin
            Hashtbl.replace dom l new_dom;
            changed := true
          end
        end)
      labels
  done;
  dom

(* -------------------- the checks ----------------------------------- *)

let check_func (fn : Func.t) : error list =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* blocks exist and labels are unique *)
  if fn.blocks = [] then err "@%s: function has no blocks" fn.name;
  let labels = Func.block_labels fn in
  let rec dup_check seen = function
    | [] -> ()
    | l :: rest ->
      if List.mem l seen then err "@%s: duplicate block label %%%s" fn.name l;
      dup_check (l :: seen) rest
  in
  dup_check [] labels;
  if fn.blocks = [] then List.rev !errors
  else begin
    let entry_label = (Func.entry fn).label in
    (* unique defs *)
    let all_defs = Func.defs fn in
    let rec dup_defs seen = function
      | [] -> ()
      | (v, _) :: rest ->
        if List.mem v seen then err "@%s: multiple definitions of %%%s" fn.name v;
        dup_defs (v :: seen) rest
    in
    dup_defs [] all_defs;
    let ty_of_var v = List.assoc_opt v all_defs in
    let ty_of_operand = function
      | Var v -> ty_of_var v
      | Const c -> Some (Constant.ty c)
    in
    (* [ctx] is a thunk: the context text (a printed instruction) is
       built only when an error is reported *)
    let check_operand ctx expected op =
      match ty_of_operand op with
      | None -> (
        match op with
        | Var v -> err "@%s: %s: use of undefined register %%%s" fn.name (ctx ()) v
        | Const _ -> ())
      | Some got ->
        if not (Types.equal got expected) then
          err "@%s: %s: operand has type %s but %s expected" fn.name (ctx ())
            (Types.to_string got) (Types.to_string expected)
    in
    (* per-block: phis first; terminator targets exist; typing *)
    let preds = Func.predecessors fn in
    List.iter
      (fun (b : Func.block) ->
        let ctx () = Printf.sprintf "block %%%s" b.label in
        (* phis first *)
        let rec phi_prefix seen_non_phi = function
          | [] -> ()
          | { ins = Phi _; _ } :: rest ->
            if seen_non_phi then err "@%s: %s: phi after non-phi instruction" fn.name b.label;
            phi_prefix seen_non_phi rest
          | _ :: rest -> phi_prefix true rest
        in
        phi_prefix false b.insns;
        (* instruction-level checks *)
        List.iter
          (fun { def; ins } ->
            let ictx () = Printf.sprintf "%s: %s" (ctx ()) (Printer.insn_to_string { def; ins }) in
            (match (def, result_ty ins) with
            | Some _, None -> err "@%s: %s: void instruction has a name" fn.name (ictx ())
            | None, Some _ -> err "@%s: %s: value-producing instruction unnamed" fn.name (ictx ())
            | _ -> ());
            (match ins with
            | Binop (op, attrs, ty, a, bb) ->
              if not (attrs_ok op attrs) then err "@%s: %s: bad attributes" fn.name (ictx ());
              if not (Types.is_integer (Types.element ty)) then
                err "@%s: %s: binop on non-integer type" fn.name (ictx ());
              check_operand ictx ty a;
              check_operand ictx ty bb
            | Icmp (_, ty, a, bb) ->
              check_operand ictx ty a;
              check_operand ictx ty bb
            | Select (c, ty, a, bb) ->
              check_operand ictx (Types.bool_shape ty) c;
              check_operand ictx ty a;
              check_operand ictx ty bb
            | Conv (op, from, x, to_) ->
              check_operand ictx from x;
              let fw = Types.bitwidth from and tw = Types.bitwidth to_ in
              (match op with
              | Zext | Sext ->
                if tw <= fw then err "@%s: %s: %s must widen" fn.name (ictx ()) (conv_name op)
              | Trunc -> if tw >= fw then err "@%s: %s: trunc must narrow" fn.name (ictx ())
              | Ptrtoint ->
                if not (Types.is_pointer (Types.element from)) then
                  err "@%s: %s: ptrtoint from non-pointer type" fn.name (ictx ());
                if not (Types.is_integer (Types.element to_)) then
                  err "@%s: %s: ptrtoint to non-integer type" fn.name (ictx ())
              | Inttoptr ->
                if not (Types.is_integer (Types.element from)) then
                  err "@%s: %s: inttoptr from non-integer type" fn.name (ictx ());
                if not (Types.is_pointer (Types.element to_)) then
                  err "@%s: %s: inttoptr to non-pointer type" fn.name (ictx ()));
              (match (from, to_) with
              | Types.Vec (n, _), Types.Vec (m, _) when n = m -> ()
              | Types.Vec _, _ | _, Types.Vec _ ->
                err "@%s: %s: vector/scalar conversion mismatch" fn.name (ictx ())
              | _ -> ())
            | Bitcast (from, x, to_) ->
              check_operand ictx from x;
              if not (Types.bitcast_compatible from to_) then
                err "@%s: %s: bitcast between types of different widths" fn.name (ictx ())
            | Freeze (ty, x) -> check_operand ictx ty x
            | Phi (ty, incoming) ->
              let my_preds =
                match List.assoc_opt b.label preds with Some p -> p | None -> []
              in
              let in_labels = List.map snd incoming in
              List.iter
                (fun p ->
                  if not (List.mem p in_labels) then
                    err "@%s: %s: phi missing incoming for predecessor %%%s" fn.name (ictx ()) p)
                my_preds;
              List.iter
                (fun (v, l) ->
                  if not (List.mem l my_preds) then
                    err "@%s: %s: phi has incoming for non-predecessor %%%s" fn.name (ictx ()) l;
                  check_operand ictx ty v)
                incoming
            | Gep { pointee; base; indices; _ } ->
              check_operand ictx (Types.Ptr pointee) base;
              List.iter
                (fun (t, v) ->
                  if not (Types.is_integer t) then
                    err "@%s: %s: gep index must be an integer" fn.name (ictx ());
                  check_operand ictx t v)
                indices
            | Load (ty, p) -> check_operand ictx (Types.Ptr ty) p
            | Store (ty, v, p) ->
              check_operand ictx ty v;
              check_operand ictx (Types.Ptr ty) p
            | Call (_, _, args) -> List.iter (fun (t, v) -> check_operand ictx t v) args
            | Extractelement (vty, v, i) ->
              if not (Types.is_vector vty) then
                err "@%s: %s: extractelement on non-vector" fn.name (ictx ());
              check_operand ictx vty v;
              check_operand ictx (Types.Int 32) i
            | Insertelement (vty, v, e, i) ->
              if not (Types.is_vector vty) then
                err "@%s: %s: insertelement on non-vector" fn.name (ictx ());
              check_operand ictx vty v;
              check_operand ictx (Types.element vty) e;
              check_operand ictx (Types.Int 32) i))
          b.insns;
        (* terminator *)
        (match b.term with
        | Ret (ty, x) ->
          (match fn.ret_ty with
          | Some rt when Types.equal rt ty -> ()
          | Some rt ->
            err "@%s: %s: ret type %s but function returns %s" fn.name (ctx ())
              (Types.to_string ty) (Types.to_string rt)
          | None -> err "@%s: %s: ret with value in void function" fn.name (ctx ()));
          check_operand ctx ty x
        | Ret_void ->
          if fn.ret_ty <> None then err "@%s: %s: ret void in non-void function" fn.name (ctx ())
        | Br l ->
          if not (List.mem l labels) then
            err "@%s: %s: branch to unknown %%%s" fn.name (ctx ()) l
        | Cond_br (c, t, e) ->
          check_operand ctx (Types.Int 1) c;
          if not (List.mem t labels) then err "@%s: %s: branch to unknown %%%s" fn.name (ctx ()) t;
          if not (List.mem e labels) then err "@%s: %s: branch to unknown %%%s" fn.name (ctx ()) e
        | Unreachable -> ());
        if List.exists (fun s -> s = entry_label) (Instr.successors b.term) then
          err "@%s: entry block %%%s must not have predecessors" fn.name entry_label)
      fn.blocks;
    (* dominance of defs over uses (reachable blocks only) *)
    let dom = dominators fn in
    let block_of_def = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) ->
        List.iter
          (fun { def; _ } ->
            match def with Some v -> Hashtbl.replace block_of_def v b.label | None -> ())
          b.insns)
      fn.blocks;
    let dominates a b =
      match Hashtbl.find_opt dom b with Some ds -> List.mem a ds | None -> false
    in
    (* blocks unreachable from the entry are exempt from dominance checks
       (as in LLVM's verifier: unreachable code may use anything) *)
    let reachable =
      let seen = Hashtbl.create 16 in
      let rec dfs l =
        if not (Hashtbl.mem seen l) then begin
          Hashtbl.replace seen l ();
          match Func.find_block fn l with
          | Some b -> List.iter dfs (Instr.successors b.term)
          | None -> ()
        end
      in
      dfs entry_label;
      seen
    in
    let arg_names = List.map fst fn.args in
    let check_use_dominance blabel ~before_pos (ins_ctx : unit -> string) op =
      if not (Hashtbl.mem reachable blabel) then ()
      else
      match op with
      | Const _ -> ()
      | Var v ->
        if List.mem v arg_names then ()
        else begin
          match Hashtbl.find_opt block_of_def v with
          | None -> () (* undefined-register error already reported *)
          | Some dblock ->
            if dblock = blabel then begin
              (* must appear earlier in the same block *)
              if not (List.mem v before_pos) then
                err "@%s: %s: %%%s used before its definition" fn.name (ins_ctx ()) v
            end
            else if not (dominates dblock blabel) then
              err "@%s: %s: definition of %%%s does not dominate this use" fn.name (ins_ctx ()) v
        end
    in
    List.iter
      (fun (b : Func.block) ->
        let seen = ref [] in
        List.iter
          (fun { def; ins } ->
            let ictx () = Printer.insn_to_string { def; ins } in
            (match ins with
            | Phi (_, incoming) ->
              (* phi uses are checked at the end of the incoming block *)
              List.iter
                (fun (v, l) ->
                  match v with
                  | Const _ -> ()
                  | Var x ->
                    if List.mem x arg_names || not (Hashtbl.mem reachable l) then ()
                    else (
                      match Hashtbl.find_opt block_of_def x with
                      | None -> ()
                      | Some dblock ->
                        if not (dblock = l || dominates dblock l) then
                          err "@%s: %s: phi operand %%%s does not dominate predecessor %%%s"
                            fn.name (ictx ()) x l))
                incoming
            | _ -> List.iter (check_use_dominance b.label ~before_pos:!seen ictx) (operands ins));
            match def with Some v -> seen := v :: !seen | None -> ())
          b.insns;
        List.iter
          (check_use_dominance b.label ~before_pos:!seen (fun () -> "terminator"))
          (term_operands b.term))
      fn.blocks;
    List.rev !errors
  end

let check_module (m : Func.module_) : error list =
  let dup =
    let names = List.map (fun f -> f.Func.name) m.funcs in
    List.filter (fun n -> List.length (List.filter (( = ) n) names) > 1) names
  in
  let dup_errs = List.sort_uniq compare dup |> List.map (errf "duplicate function @%s") in
  dup_errs @ List.concat_map check_func m.funcs

let is_valid fn = check_func fn = []

exception Invalid of string list

let check_exn fn =
  match check_func fn with
  | [] -> ()
  | errs -> raise (Invalid errs)
