(* A small property-based testing layer: generators paired with
   shrinkers, seeded by [Ub_support.Prng] so every run is reproducible
   from its integer seed.  On failure the counterexample is greedily
   shrunk (first-improvement, like [Ub_shrink.Reduce]) and persisted to
   a corpus directory when one is given, so a red CI run leaves behind
   the minimized input that broke it.

   The [func] arbitrary ties the layer to the IR: random functions from
   [Gen.random_func], shrunk through the full reduction-edit catalogue
   of [Ub_shrink.Reduce.shrink_candidates] — which is exactly how the
   round-trip laws in test/test_prop.ml exercise every shrink pass. *)

open Ub_support

type 'a arbitrary = {
  gen : Prng.t -> 'a;
  shrink : 'a -> 'a list;
  show : 'a -> string;
}

let make ?(shrink = fun _ -> []) ~(show : 'a -> string) (gen : Prng.t -> 'a) :
    'a arbitrary =
  { gen; shrink; show }

let int_range lo hi : int arbitrary =
  if hi < lo then invalid_arg "Prop.int_range";
  { gen = (fun rng -> lo + Prng.int rng (hi - lo + 1));
    shrink =
      (fun n ->
        List.sort_uniq compare [ lo; lo + ((n - lo) / 2); n - 1 ]
        |> List.filter (fun m -> m >= lo && m < n));
    show = string_of_int;
  }

let bool : bool arbitrary =
  { gen = Prng.bool; shrink = (function true -> [ false ] | false -> []); show = string_of_bool }

let pair (a : 'a arbitrary) (b : 'b arbitrary) : ('a * 'b) arbitrary =
  { gen =
      (fun rng ->
        let x = a.gen rng in
        let y = b.gen rng in
        (x, y));
    shrink =
      (fun (x, y) ->
        List.map (fun x' -> (x', y)) (a.shrink x)
        @ List.map (fun y' -> (x, y')) (b.shrink y));
    show = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.show x) (b.show y));
  }

let list_of ?(max_len = 8) (a : 'a arbitrary) : 'a list arbitrary =
  let rec drop_one = function
    | [] -> []
    | x :: xs -> xs :: List.map (fun ys -> x :: ys) (drop_one xs)
  in
  let shrink_elem xs =
    List.concat
      (List.mapi
         (fun i x ->
           List.map (fun x' -> List.mapi (fun j y -> if j = i then x' else y) xs) (a.shrink x))
         xs)
  in
  { gen =
      (fun rng ->
        let len = Prng.int rng (max_len + 1) in
        List.init len (fun _ -> a.gen rng));
    shrink =
      (fun xs ->
        let n = List.length xs in
        (if n > 1 then [ Util.take (n / 2) xs ] else [])
        @ drop_one xs @ shrink_elem xs);
    show = (fun xs -> "[" ^ String.concat "; " (List.map a.show xs) ^ "]");
  }

(* Random IR functions, shrunk through the reduction-edit catalogue
   (every candidate is already validated by the engine). *)
let func ?(name = "pt") () : Ub_ir.Func.t arbitrary =
  { gen = (fun rng -> Gen.random_func rng ~name);
    shrink = Ub_shrink.Reduce.shrink_candidates;
    show = Ub_ir.Printer.func_to_string;
  }

(* ------------------------------------------------------------------ *)
(* Running a property                                                  *)
(* ------------------------------------------------------------------ *)

type failure = {
  attempt : int; (* 0-based index of the failing generation *)
  original : string;
  minimized : string;
  shrink_steps : int;
  error : string; (* "returned false" or the exception *)
  corpus_file : string option;
}

type 'a outcome =
  | Passed of int (* number of cases run *)
  | Failed of 'a * failure

(* [None] = property holds; [Some reason] = it does not. *)
let eval (prop : 'a -> bool) (x : 'a) : string option =
  match prop x with
  | true -> None
  | false -> Some "property returned false"
  | exception e -> Some ("raised " ^ Printexc.to_string e)

let shrink_failure (arb : 'a arbitrary) (prop : 'a -> bool) (x0 : 'a) (err0 : string)
    ?(max_steps = 500) () : 'a * string * int =
  let steps = ref 0 in
  let rec go x err =
    if !steps >= max_steps then (x, err)
    else
      match
        List.find_map
          (fun c -> match eval prop c with Some e -> Some (c, e) | None -> None)
          (arb.shrink x)
      with
      | Some (c, e) ->
        incr steps;
        go c e
      | None -> (x, err)
  in
  let x, err = go x0 err0 in
  (x, err, !steps)

(* Corpus files are valid IR with a ';'-comment header, so a persisted
   counterexample can be re-parsed and replayed directly. *)
let persist ~dir ~prop_name ~seed (f : failure) : string =
  Util.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.cex" prop_name seed) in
  let oc = open_out path in
  Printf.fprintf oc
    "; property: %s\n; seed: %d\n; attempt: %d\n; error: %s\n; shrink steps: %d\n%s\n"
    prop_name seed f.attempt f.error f.shrink_steps f.minimized;
  close_out oc;
  path

let run ?(count = 100) ?(seed = 1) ?corpus_dir ~(name : string) (arb : 'a arbitrary)
    (prop : 'a -> bool) : 'a outcome =
  let rng = Prng.create ~seed in
  let rec go i =
    if i >= count then Passed count
    else begin
      let x = arb.gen rng in
      match eval prop x with
      | None -> go (i + 1)
      | Some err ->
        let x', err', steps = shrink_failure arb prop x err () in
        let f =
          { attempt = i;
            original = arb.show x;
            minimized = arb.show x';
            shrink_steps = steps;
            error = err';
            corpus_file = None;
          }
        in
        let f =
          match corpus_dir with
          | Some dir -> { f with corpus_file = Some (persist ~dir ~prop_name:name ~seed f) }
          | None -> f
        in
        Failed (x', f)
    end
  in
  go 0

(* Alcotest-friendly wrapper: raises [Failure] with the minimized
   counterexample in the message. *)
let check ?count ?seed ?corpus_dir ~(name : string) (arb : 'a arbitrary)
    (prop : 'a -> bool) : unit =
  match run ?count ?seed ?corpus_dir ~name arb prop with
  | Passed _ -> ()
  | Failed (_, f) ->
    failwith
      (Printf.sprintf
         "property %s failed on attempt %d (%s)%s; minimized after %d shrink step(s):\n%s"
         name f.attempt f.error
         (match f.corpus_file with Some p -> "; saved to " ^ p | None -> "")
         f.shrink_steps f.minimized)
