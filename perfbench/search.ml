(* The `search` workload: choice-free sources, so universal expansion is
   a single encode and CDCL search does the work.  Queries are seeded
   draws from hand-written identity families, each with two refuted
   variants; the expected answer follows from how the query was built:

   - [Ident]: the identity itself, which refines;
   - [Flag]: the target's last instruction carries an nsw flag the
     source does not have, and every family can overflow there, so the
     target is poison where the source is defined;
   - [Off]: the target adds a nonzero constant to the result, so it
     differs from the source on every defined input.

   One pass is the whole menu -- every family x width x operand order x
   variant -- in a seeded order, with seeded names, shift-add constants
   and off-by-one signs.  The menu's structure, and so its cost, is the
   same for every seed: what the solver does depends on the circuit,
   not on the names. *)

open Common
module Prng = Ub_support.Prng

type variant = Ident | Flag | Off

let variant_name = function Ident -> "ident" | Flag -> "flag" | Off -> "off"

type query = { label : string; src : string; tgt : string; want : cls }

(* Text builders: [body] is the instruction list, the last defining %y. *)
let func ~name ~w ~(args : string list) (body : string list) : string =
  Printf.sprintf "define i%d @%s(%s) {\ne:\n%s\n  ret i%d %%y\n}" w name
    (String.concat ", " (List.map (fun a -> Printf.sprintf "i%d %%%s" w a) args))
    (String.concat "\n" (List.map (fun l -> "  " ^ l) body))
    w

(* The target's last line is [%y = OP iW ...]; a variant either flags
   it or renames it to %r and adds a constant. *)
let apply_variant (rng : Prng.t) ~w (v : variant) (body : string list) : string list =
  match v with
  | Ident -> body
  | Flag -> (
    match List.rev body with
    | last :: rest -> (
      (* "%y = mul i8 %a, %b" -> "%y = mul nsw i8 %a, %b" *)
      match String.split_on_char ' ' last with
      | y :: eq :: opc :: tl -> List.rev (String.concat " " (y :: eq :: opc :: "nsw" :: tl) :: rest)
      | _ -> assert false)
    | [] -> assert false)
  | Off -> (
    let c = if Prng.bool rng then 1 else -1 in
    match List.rev body with
    | last :: rest ->
      let renamed = "%r" ^ String.sub last 2 (String.length last - 2) in
      List.rev_append rest [ renamed; Printf.sprintf "%%y = add i%d %%r, %d" w c ]
    | [] -> assert false)

let swap flip (a, b) = if flip then (b, a) else (a, b)

type family = {
  fam : string;
  widths : int list;
  arity : int;
  orders : bool list; (* the operand orders the menu covers *)
  (* (source body, target body) over argument names *)
  bodies : Prng.t -> flip:bool -> w:int -> string list -> string list * string list;
}

let mul_comm =
  { fam = "mul-comm";
    widths = [ 5; 6; 7 ];
    arity = 2;
    orders = [ false ];
    bodies =
      (fun _ ~flip:_ ~w args ->
        match args with
        | [ a; b ] ->
          ( [ Printf.sprintf "%%y = mul i%d %%%s, %%%s" w a b ],
            [ Printf.sprintf "%%y = mul i%d %%%s, %%%s" w b a ] )
        | _ -> assert false);
  }

let mul_assoc =
  { fam = "mul-assoc";
    widths = [ 4; 5 ];
    arity = 3;
    orders = [ false; true ];
    bodies =
      (fun _ ~flip ~w args ->
        match args with
        | [ a; b; c ] ->
          let x, y = swap flip (b, c) in
          ( [ Printf.sprintf "%%t = mul i%d %%%s, %%%s" w a b;
              Printf.sprintf "%%y = mul i%d %%t, %%%s" w c ],
            [ Printf.sprintf "%%t = mul i%d %%%s, %%%s" w x y;
              Printf.sprintf "%%y = mul i%d %%%s, %%t" w a ] )
        | _ -> assert false);
  }

let distrib =
  { fam = "distrib";
    widths = [ 4; 5 ];
    arity = 3;
    orders = [ false; true ];
    bodies =
      (fun _ ~flip ~w args ->
        match args with
        | [ a; b; c ] ->
          let p, q = swap flip ("p", "q") in
          ( [ Printf.sprintf "%%s = add i%d %%%s, %%%s" w b c;
              Printf.sprintf "%%y = mul i%d %%%s, %%s" w a ],
            [ Printf.sprintf "%%p = mul i%d %%%s, %%%s" w a b;
              Printf.sprintf "%%q = mul i%d %%%s, %%%s" w a c;
              Printf.sprintf "%%y = add i%d %%%s, %%%s" w p q ] )
        | _ -> assert false);
  }

let diff_squares =
  { fam = "diff-squares";
    widths = [ 5; 6 ];
    arity = 2;
    orders = [ false; true ];
    bodies =
      (fun _ ~flip ~w args ->
        match args with
        | [ a; b ] ->
          let s1, s2 = swap flip (a, b) in
          ( [ Printf.sprintf "%%s = add i%d %%%s, %%%s" w s1 s2;
              Printf.sprintf "%%d = sub i%d %%%s, %%%s" w a b;
              Printf.sprintf "%%y = mul i%d %%s, %%d" w ],
            [ Printf.sprintf "%%p = mul i%d %%%s, %%%s" w a a;
              Printf.sprintf "%%q = mul i%d %%%s, %%%s" w b b;
              Printf.sprintf "%%y = sub i%d %%p, %%q" w ] )
        | _ -> assert false);
  }

(* x * K against the shift-add chain of K's set bits (K odd, at least
   two bits set, so the chain ends in an add). *)
let shift_add =
  { fam = "shift-add";
    widths = [ 6; 7; 8 ];
    arity = 1;
    orders = [ false ];
    bodies =
      (fun rng ~flip:_ ~w args ->
        match args with
        | [ x ] ->
          let rec pick () =
            let k = 1 lor Prng.int rng (1 lsl w) in
            let bits = List.filter (fun i -> k land (1 lsl i) <> 0) (List.init w Fun.id) in
            if List.length bits >= 2 then (k, bits) else pick ()
          in
          let k, bits = pick () in
          let shifts =
            List.filter_map
              (fun i ->
                if i = 0 then None else Some (Printf.sprintf "%%sh%d = shl i%d %%%s, %d" i w x i))
              bits
          in
          let terms = List.map (fun i -> if i = 0 then "%" ^ x else Printf.sprintf "%%sh%d" i) bits in
          let rec chain acc n = function
            | [] -> List.rev acc
            | [ t ] -> List.rev (Printf.sprintf "%%y = add i%d %s, %s" w n t :: acc)
            | t :: tl ->
              let v = Printf.sprintf "%%acc%d" (List.length acc) in
              chain (Printf.sprintf "%s = add i%d %s, %s" v w n t :: acc) v tl
          in
          ( [ Printf.sprintf "%%y = mul i%d %%%s, %d" w x k ],
            shifts @ chain [] (List.hd terms) (List.tl terms) )
        | _ -> assert false);
  }

let families = [ mul_comm; mul_assoc; distrib; diff_squares; shift_add ]

let name_pools = [| [ "a"; "b"; "c" ]; [ "x"; "y0"; "z" ]; [ "p"; "q"; "r" ]; [ "m"; "n"; "k" ] |]

let make_query (rng : Prng.t) (f : family) ~(flip : bool) ~(w : int) (v : variant) ~(idx : int) :
    query =
  let pool = Prng.choose_array rng name_pools in
  let suffix = string_of_int (Prng.int rng 100) in
  let args = List.filteri (fun i _ -> i < f.arity) (List.map (fun a -> a ^ suffix) pool) in
  let sb, tb = f.bodies rng ~flip ~w args in
  let tb = apply_variant rng ~w v tb in
  let name = Printf.sprintf "q%d" idx in
  { label = Printf.sprintf "%s-i%d%s-%s" f.fam w (if flip then "-swapped" else "") (variant_name v);
    src = func ~name ~w ~args sb;
    tgt = func ~name ~w ~args tb;
    want = (match v with Ident -> Refines | Flag | Off -> Cex);
  }

(* One pass: every menu cell once, in a seeded order. *)
let corpus ~(seed : int) : query array =
  let rng = Prng.create ~seed:(0x5EA4C + seed) in
  let cells =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun w ->
            List.concat_map
              (fun flip -> List.map (fun v -> (f, flip, w, v)) [ Ident; Flag; Off ])
              f.orders)
          f.widths)
      families
  in
  let qs = List.mapi (fun idx (f, flip, w, v) -> make_query rng f ~flip ~w v ~idx) cells in
  Prng.shuffle rng (Array.of_list qs)

let setup ~(seed : int) : Workload.inst =
  let pairs =
    Array.map
      (fun q -> { Pairs.label = q.label; mode = Ub_sem.Mode.proposed; src = q.src; tgt = q.tgt; want = q.want })
      (corpus ~seed)
  in
  (* warm up on the refuted variants: every family's parse, encode and
     solve paths, at a cost that barely depends on the seed *)
  let warm = List.filter (fun i -> pairs.(i).Pairs.want = Cex) (List.init (Array.length pairs) Fun.id) in
  Pairs.instance ~warm pairs
