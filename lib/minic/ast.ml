(* Mini-C: the source language of our benchmark suite.  A small C subset
   with fixed-width signed integers, fixed-size arrays, structs with
   BIT-FIELDS (the Section 5.3 protagonists), and the usual statements.

   Semantics notes (mirroring C as compiled by Clang):
   - signed +, -, * lower to nsw instructions (overflow is deferred UB);
   - /, % lower to sdiv/srem (division by zero is immediate UB);
   - <<, >> lower to shl/ashr (oversized shifts are deferred UB);
   - uninitialized locals are uninitialized (undef/poison per mode);
   - bit-field stores lower to load+mask+or+store of the container word,
     with or without the freeze fix. *)

type ty =
  | I8
  | I16
  | I32
  | I64
  | Array of ty * int (* element type (base only), length *)
  | Struct of string

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | BAnd | BOr | BXor
  | Lt | Le | Gt | Ge | Eq | Ne
  | LAnd | LOr (* short-circuit *)

type unop = Neg | BNot | LNot

type expr =
  | Int_lit of int64
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Assign of lvalue * expr
  | Index of expr * expr (* a[i] where a is an array variable *)
  | Field of expr * string (* s.f *)
  | Call of string * expr list
  | Cast of ty * expr
  | Cond of expr * expr * expr (* e ? a : b *)

and lvalue =
  | Lvar of string
  | Lindex of string * expr (* array[i] *)
  | Lfield of string * string (* struct_var.field *)

type stmt =
  | Expr of expr
  | Decl of ty * string * expr option
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt option * expr option * expr option * stmt list
  | Return of expr option
  | Block of stmt list

(* A struct field: a plain field or a bit-field of [bits] width packed
   into i32 container words in declaration order. *)
type field = { fname : string; fty : ty; bits : int option }

type struct_def = { sname : string; fields : field list }

type func = {
  name : string;
  ret : ty option;
  params : (string * ty) list;
  body : stmt list;
}

type program = { structs : struct_def list; funcs : func list }

let base_bits = function
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | Array _ | Struct _ -> invalid_arg "base_bits: aggregate"
