(* Small general-purpose helpers shared across the repository. *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: xs -> drop (n - 1) xs

let sum_int = List.fold_left ( + ) 0
let sum_float = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum_float xs /. float_of_int (List.length xs)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let percent_change ~base ~now =
  if base = 0.0 then 0.0 else (now -. base) /. base *. 100.0

(* Cartesian product of a list of lists, in lexicographic order. *)
let rec cartesian = function
  | [] -> [ [] ]
  | xs :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun x -> List.map (fun t -> x :: t) tails) xs

let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let string_contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    let rec go i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else go (i + 1)
    in
    go 0
  end

(* Write all [len] bytes of [b] from [off] to [fd]. *)
let rec write_all fd b off len =
  if len > 0 then begin
    let n = try Unix.write fd b off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd b (off + n) (len - n)
  end

(* [mkdir -p]: create [dir] and every missing parent. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
