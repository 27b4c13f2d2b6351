(* The one JSON codec: trace events, run reports, the BENCH_*.json
   records and the serve wire protocol are all built as [t] values and
   printed and parsed here.  The container has no JSON library, and
   nothing needs more than the data model itself -- no streaming, no
   schemas -- so a short recursive-descent parser beats a dependency.

   Numbers are floats.  An integral value prints without a fraction, so
   counters and nanosecond timestamps read back as integers in any JSON
   reader; they are exact up to 2^53 (a monotonic nanosecond clock
   reaches that after 104 days of uptime).  [to_int] refuses anything
   beyond, rather than round it.  Other numbers print in the fewest
   digits that read back to the same float.  Strings are byte strings:
   \uXXXX escapes decode to UTF-8 on the way in, and control characters
   are escaped on the way out. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* An integer field: counters, ids, nanosecond timestamps. *)
let int (n : int) : t = Num (float_of_int n)

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let number_to_string (f : float) : string =
  if not (Float.is_finite f) then "null" (* JSON has no nan/inf *)
  else if Float.is_integer f && Float.abs f < 1e18 && not (Float.sign_bit f && f = 0.0) then
    string_of_int (int_of_float f)
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits >= 17 || float_of_string s = f then s else shortest (digits + 1)
    in
    shortest 15

let write_str buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

(* The [lines] outermost levels put each member or element on its own
   line, indented two spaces a level; deeper levels print compact. *)
let rec write buf ~lines ~indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> write_str buf s
  | List xs -> write_seq buf ~lines ~indent '[' ']' (write buf) xs
  | Obj kvs ->
    write_seq buf ~lines ~indent '{' '}'
      (fun ~lines ~indent (k, v) ->
        write_str buf k;
        Buffer.add_char buf ':';
        write buf ~lines ~indent v)
      kvs

and write_seq : 'a. Buffer.t -> lines:int -> indent:int -> char -> char ->
    (lines:int -> indent:int -> 'a -> unit) -> 'a list -> unit =
 fun buf ~lines ~indent opening closing item xs ->
  let break n =
    if lines > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make n ' ')
    end
  in
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      break (indent + 2);
      item ~lines:(lines - 1) ~indent:(indent + 2) x)
    xs;
  if xs <> [] then break indent;
  Buffer.add_char buf closing

let print ~lines (v : t) : string =
  let buf = Buffer.create 256 in
  write buf ~lines ~indent:0 v;
  Buffer.contents buf

(* One line: a trace line, a wire payload. *)
let to_string (v : t) : string = print ~lines:0 v

(* A file holds [v] with its two outer levels broken into lines (one
   BENCH_solver.json query, one report counter a line), so a rewritten
   file diffs per entry. *)
let to_file (path : string) (v : t) : unit =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (print ~lines:2 v);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { s : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek st with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    advance st;
    v := (!v * 16) + d
  done;
  !v

let parse_string st : string =
  expect st '"';
  let buf = Buffer.create 32 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
        advance st;
        Buffer.add_char buf
          (match c with
          | 'b' -> '\b'
          | 'f' -> '\012'
          | 'n' -> '\n'
          | 'r' -> '\r'
          | 't' -> '\t'
          | c -> c)
      | Some 'u' ->
        advance st;
        let cp = hex4 st in
        (* surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF *)
        let cp =
          if cp >= 0xD800 && cp <= 0xDBFF && peek st = Some '\\' then begin
            advance st;
            expect st 'u';
            let lo = hex4 st in
            if lo >= 0xDC00 && lo <= 0xDFFF then 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            else fail st "unpaired surrogate"
          end
          else cp
        in
        (* a lone surrogate is no code point *)
        if not (Uchar.is_valid cp) then fail st "unpaired surrogate";
        Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
      | _ -> fail st "bad escape");
      loop ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st : float =
  let start = st.pos in
  let consume pred =
    while (match peek st with Some c -> pred c | None -> false) do
      advance st
    done
  in
  if peek st = Some '-' then advance st;
  consume (function '0' .. '9' -> true | _ -> false);
  if peek st = Some '.' then begin
    advance st;
    consume (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st ("bad number " ^ text)

(* The comma-separated items of an object or array, up to and
   including [closing]; the opening bracket is already consumed. *)
let parse_seq st closing (item : unit -> 'a) : 'a list =
  skip_ws st;
  if peek st = Some closing then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let x = item () in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        go (x :: acc)
      | Some c when c = closing ->
        advance st;
        List.rev (x :: acc)
      | _ -> fail st (Printf.sprintf "expected ',' or '%c'" closing)
    in
    go []

let rec parse_value st : t =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    Obj
      (parse_seq st '}' (fun () ->
           skip_ws st;
           let k = parse_string st in
           skip_ws st;
           expect st ':';
           (k, parse_value st)))
  | Some '[' ->
    advance st;
    List (parse_seq st ']' (fun () -> parse_value st))
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected '%c'" c)

let of_string (s : string) : (t, string) result =
  let st = { s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors (all total: Error-free lookup helpers for decoders)       *)
(* ------------------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None
(* Only integers a float holds exactly: 2^53 + 1 parses as 2^53, so
   that and everything beyond is refused. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 0x1p53 -> Some (int_of_float f)
  | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None

let str_field j k = Option.bind (member k j) to_str
let num_field j k = Option.bind (member k j) to_num
let int_field j k = Option.bind (member k j) to_int
let bool_field j k = Option.bind (member k j) to_bool
