(* Growable arrays with amortized O(1) push, used for the SAT solver's
   watch lists and learned-clause database.  A [dummy] element fills the
   unused tail so the structure works for any element type without
   Obj.magic. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

(* Capacity 0 shares the empty-array atom: a freshly created vector
   costs one record and nothing else. *)
let create ?(capacity = 0) (dummy : 'a) : 'a t =
  { data = (if capacity <= 0 then [||] else Array.make capacity dummy); len = 0; dummy }

let length v = v.len

let get (v : 'a t) i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set (v : 'a t) i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (max 4 (2 * cap)) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push (v : 'a t) x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop (v : 'a t) : 'a =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let clear (v : 'a t) =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

(* Truncate to [len] elements (len <= length). *)
let shrink (v : 'a t) len =
  if len < 0 || len > v.len then invalid_arg "Vec.shrink";
  Array.fill v.data len (v.len - len) v.dummy;
  v.len <- len

(* Keep only elements satisfying [p], preserving order. *)
let filter_in_place (p : 'a -> bool) (v : 'a t) =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!j) <- x;
      incr j
    end
  done;
  shrink v !j

let iter f (v : 'a t) =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let exists p (v : 'a t) =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let to_list (v : 'a t) : 'a list =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

let of_list (dummy : 'a) (xs : 'a list) : 'a t =
  let v = create ~capacity:(max 1 (List.length xs)) dummy in
  List.iter (push v) xs;
  v
