(* Textual form of the IR, closely following LLVM's assembly syntax so
   that the paper's examples can be pasted in nearly verbatim. *)

open Instr

let pp_var ppf v = Fmt.pf ppf "%%%s" v
let pp_label ppf l = Fmt.pf ppf "label %%%s" l

let pp_operand ppf = function
  | Var v -> pp_var ppf v
  | Const c -> Constant.pp ppf c

let pp_attrs op ppf { nsw; nuw; exact } =
  ignore op;
  if nuw then Fmt.pf ppf "nuw ";
  if nsw then Fmt.pf ppf "nsw ";
  if exact then Fmt.pf ppf "exact "

let pp_insn ppf (named : named) =
  (match named.def with
  | Some v -> Fmt.pf ppf "%a = " pp_var v
  | None -> ());
  match named.ins with
  | Binop (op, attrs, ty, a, b) ->
    Fmt.pf ppf "%s %a%a %a, %a" (binop_name op) (pp_attrs op) attrs Types.pp ty pp_operand a
      pp_operand b
  | Icmp (p, ty, a, b) ->
    Fmt.pf ppf "icmp %s %a %a, %a" (pred_name p) Types.pp ty pp_operand a pp_operand b
  | Select (c, ty, a, b) ->
    let cty = Types.bool_shape ty in
    Fmt.pf ppf "select %a %a, %a %a, %a %a" Types.pp cty pp_operand c Types.pp ty pp_operand a
      Types.pp ty pp_operand b
  | Conv (op, from, x, to_) ->
    Fmt.pf ppf "%s %a %a to %a" (conv_name op) Types.pp from pp_operand x Types.pp to_
  | Bitcast (from, x, to_) ->
    Fmt.pf ppf "bitcast %a %a to %a" Types.pp from pp_operand x Types.pp to_
  | Freeze (ty, x) -> Fmt.pf ppf "freeze %a %a" Types.pp ty pp_operand x
  | Phi (ty, incoming) ->
    Fmt.pf ppf "phi %a %a" Types.pp ty
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, l) -> Fmt.pf ppf "[ %a, %%%s ]" pp_operand v l))
      incoming
  | Gep { inbounds; pointee; base; indices } ->
    Fmt.pf ppf "getelementptr %s%a, %a %a%a"
      (if inbounds then "inbounds " else "")
      Types.pp pointee Types.pp (Types.Ptr pointee) pp_operand base
      (Fmt.list ~sep:Fmt.nop (fun ppf (t, v) -> Fmt.pf ppf ", %a %a" Types.pp t pp_operand v))
      indices
  | Load (ty, p) -> Fmt.pf ppf "load %a, %a %a" Types.pp ty Types.pp (Types.Ptr ty) pp_operand p
  | Store (ty, v, p) ->
    Fmt.pf ppf "store %a %a, %a %a" Types.pp ty pp_operand v Types.pp (Types.Ptr ty) pp_operand p
  | Call (ret, callee, args) ->
    Fmt.pf ppf "call %s @%s(%a)"
      (match ret with Some t -> Types.to_string t | None -> "void")
      callee
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (t, v) -> Fmt.pf ppf "%a %a" Types.pp t pp_operand v))
      args
  | Extractelement (vty, v, i) ->
    Fmt.pf ppf "extractelement %a %a, i32 %a" Types.pp vty pp_operand v pp_operand i
  | Insertelement (vty, v, e, i) ->
    Fmt.pf ppf "insertelement %a %a, %a %a, i32 %a" Types.pp vty pp_operand v Types.pp
      (Types.element vty) pp_operand e pp_operand i

let pp_term ppf = function
  | Ret (ty, x) -> Fmt.pf ppf "ret %a %a" Types.pp ty pp_operand x
  | Ret_void -> Fmt.pf ppf "ret void"
  | Br l -> Fmt.pf ppf "br %a" pp_label l
  | Cond_br (c, t, e) -> Fmt.pf ppf "br i1 %a, %a, %a" pp_operand c pp_label t pp_label e
  | Unreachable -> Fmt.pf ppf "unreachable"

let pp_block ppf (b : Func.block) =
  Fmt.pf ppf "%s:@." b.label;
  List.iter (fun i -> Fmt.pf ppf "  %a@." pp_insn i) b.insns;
  Fmt.pf ppf "  %a@." pp_term b.term

let pp_func ppf (fn : Func.t) =
  Fmt.pf ppf "define %s @%s(%a) {@."
    (match fn.ret_ty with Some t -> Types.to_string t | None -> "void")
    fn.name
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, t) -> Fmt.pf ppf "%a %a" Types.pp t pp_var v))
    fn.args;
  List.iter (fun b -> pp_block ppf b) fn.blocks;
  Fmt.pf ppf "}@."

let pp_module ppf (m : Func.module_) =
  Fmt.list ~sep:(Fmt.any "@.") pp_func ppf m.funcs

let func_to_string fn = Fmt.str "%a" pp_func fn
let module_to_string m = Fmt.str "%a" pp_module m
let insn_to_string i = Fmt.str "%a" pp_insn i

(* A witness file: [header] as ';' comment lines (the lexer skips them),
   a blank line, then [src] renamed @src and, when given, [tgt] renamed
   @tgt, so the file reads back as a (source, target) module. *)
let witness_to_string ~(header : string list) ?tgt (src : Func.t) : string =
  let named name (f : Func.t) = func_to_string { f with Func.name } in
  String.concat "" (List.map (fun l -> "; " ^ l ^ "\n") header)
  ^ "\n" ^ named "src" src
  ^ match tgt with Some t -> "\n" ^ named "tgt" t | None -> ""
