(* An imperative convenience API for constructing IR functions, in the
   style of LLVM's IRBuilder.  Examples and the Mini-C frontend use it. *)

open Instr

type t = {
  fname : string;
  args : (var * Types.t) list;
  ret_ty : Types.t option;
  mutable blocks : (label * named list ref * terminator option ref) list; (* reverse order *)
  mutable current : (label * named list ref * terminator option ref) option;
  mutable counter : int;
}

let create ~name ?(args = []) ?ret_ty () =
  { fname = name; args; ret_ty; blocks = []; current = None; counter = 0 }

let fresh ?(prefix = "t") b =
  let v = Printf.sprintf "%s%d" prefix b.counter in
  b.counter <- b.counter + 1;
  v

let fresh_label ?(prefix = "bb") b =
  let l = Printf.sprintf "%s%d" prefix b.counter in
  b.counter <- b.counter + 1;
  l

(* Start (and switch to) a new block with the given label. *)
let start_block b label =
  if List.exists (fun (l, _, _) -> l = label) b.blocks then
    invalid_arg (Printf.sprintf "Builder: duplicate block %%%s" label);
  let blk = (label, ref [], ref None) in
  b.blocks <- blk :: b.blocks;
  b.current <- Some blk

let current_label b =
  match b.current with
  | Some (l, _, _) -> l
  | None -> invalid_arg "Builder: no current block"

let cur b =
  match b.current with
  | Some c -> c
  | None -> invalid_arg "Builder: no current block (call start_block first)"

let insert b ?name ins =
  let _, insns, term = cur b in
  if !term <> None then invalid_arg "Builder: block already terminated";
  let def =
    if is_void ins then None
    else Some (match name with Some n -> n | None -> fresh b)
  in
  insns := { def; ins } :: !insns;
  match def with Some v -> Var v | None -> Const (Constant.bool false) (* unused *)

let set_term b t =
  let _, _, term = cur b in
  if !term <> None then invalid_arg "Builder: block already terminated";
  term := Some t

(* -------------------- instruction helpers -------------------------- *)

let binop b ?name ?(attrs = no_attrs) op ty x y = insert b ?name (Binop (op, attrs, ty, x, y))
let add ?name ?attrs b ty x y = binop b ?name ?attrs Add ty x y
let sub ?name ?attrs b ty x y = binop b ?name ?attrs Sub ty x y
let mul ?name ?attrs b ty x y = binop b ?name ?attrs Mul ty x y
let udiv ?name ?attrs b ty x y = binop b ?name ?attrs UDiv ty x y
let sdiv ?name ?attrs b ty x y = binop b ?name ?attrs SDiv ty x y
let and_ ?name b ty x y = binop b ?name And ty x y
let or_ ?name b ty x y = binop b ?name Or ty x y
let xor ?name b ty x y = binop b ?name Xor ty x y
let shl ?name ?attrs b ty x y = binop b ?name ?attrs Shl ty x y
let lshr ?name ?attrs b ty x y = binop b ?name ?attrs LShr ty x y
let ashr ?name ?attrs b ty x y = binop b ?name ?attrs AShr ty x y

let icmp b ?name p ty x y = insert b ?name (Icmp (p, ty, x, y))
let select b ?name c ty x y = insert b ?name (Select (c, ty, x, y))
let zext b ?name ~from ~to_ x = insert b ?name (Conv (Zext, from, x, to_))
let sext b ?name ~from ~to_ x = insert b ?name (Conv (Sext, from, x, to_))
let trunc b ?name ~from ~to_ x = insert b ?name (Conv (Trunc, from, x, to_))
let bitcast b ?name ~from ~to_ x = insert b ?name (Bitcast (from, x, to_))
let ptrtoint b ?name ~from ~to_ x = insert b ?name (Conv (Ptrtoint, from, x, to_))
let inttoptr b ?name ~from ~to_ x = insert b ?name (Conv (Inttoptr, from, x, to_))
let freeze b ?name ty x = insert b ?name (Freeze (ty, x))
let phi b ?name ty incoming = insert b ?name (Phi (ty, incoming))

let gep b ?name ?(inbounds = false) ~pointee base indices =
  insert b ?name (Gep { inbounds; pointee; base; indices })

let load b ?name ty p = insert b ?name (Load (ty, p))
let store b ty v p = ignore (insert b (Store (ty, v, p)))
let call b ?name ret callee args = insert b ?name (Call (ret, callee, args))
let call_void b callee args = ignore (insert b (Call (None, callee, args)))
let extractelement b ?name vty v i = insert b ?name (Extractelement (vty, v, i))
let insertelement b ?name vty v e i = insert b ?name (Insertelement (vty, v, e, i))

let ret b ty x = set_term b (Ret (ty, x))
let ret_void b = set_term b Ret_void
let br b l = set_term b (Br l)
let cond_br b c t e = set_term b (Cond_br (c, t, e))
let unreachable b = set_term b Unreachable

(* Convenience constant operands. *)
let const_i ~width i = Const (Constant.of_int ~width i)
let const_bool v = Const (Constant.bool v)
let undef ty = Const (Constant.Undef ty)
let poison ty = Const (Constant.Poison ty)

(* Insert a phi at the START of a (possibly already filled) block; used
   by frontends that only learn the loop-carried values after lowering
   the loop body. *)
let prepend_phi b label ~name ty incoming =
  match List.find_opt (fun (l, _, _) -> l = label) b.blocks with
  | Some (_, insns, _) ->
    (* [insns] is kept in reverse order, so appending places the phi
       first in program order *)
    insns := !insns @ [ { def = Some name; ins = Phi (ty, incoming) } ]
  | None -> invalid_arg (Printf.sprintf "Builder.prepend_phi: no block %%%s" label)

(* Add an incoming edge to an existing phi (loop back edges discovered
   after the fact). *)
let patch_phi b label var incoming =
  match List.find_opt (fun (l, _, _) -> l = label) b.blocks with
  | Some (_, insns, _) ->
    insns :=
      List.map
        (fun n ->
          match (n.def, n.ins) with
          | Some d, Phi (ty, incs) when d = var -> { n with ins = Phi (ty, incs @ [ incoming ]) }
          | _ -> n)
        !insns
  | None -> invalid_arg (Printf.sprintf "Builder.patch_phi: no block %%%s" label)

(* Give every unterminated block an [unreachable]; frontends call this
   for join blocks that turned out to have no predecessors. *)
let terminate_dangling b =
  List.iter (fun (_, _, term) -> if !term = None then term := Some Unreachable) b.blocks

(* -------------------- finishing ------------------------------------ *)

let finish b : Func.t =
  let blocks =
    List.rev_map
      (fun (label, insns, term) ->
        match !term with
        | Some t -> { Func.label; insns = List.rev !insns; term = t }
        | None -> invalid_arg (Printf.sprintf "Builder: block %%%s not terminated" label))
      b.blocks
  in
  { Func.name = b.fname; args = b.args; ret_ty = b.ret_ty; blocks }

let finish_validated b =
  let fn = finish b in
  Validate.check_exn fn;
  fn
