(* Strategy toggles for the four query transformation / evaluation
   strategies of paper Section 4.  The benchmark harness compares the
   presets against each other and against the naive evaluator. *)

type t = {
  parallel_scan : bool;
      (* S1: evaluate all join terms over a relation in one scan *)
  monadic_restrict : bool;
      (* S2: monadic terms restrict indirect joins; skip their single lists *)
  range_extension : bool;
      (* S3: move monadic terms into extended range expressions *)
  cnf_extension : bool;
      (* S3/CNF: the paper's future-work refinement — extensions in
         conjunctive normal form (implies range_extension) *)
  quantifier_push : bool;
      (* S4: evaluate splittable quantifiers in the collection phase *)
}

(* The phase-structured baseline after Palermo (Section 3.3): one scan
   per join-term evaluation, no transformations. *)
let palermo =
  {
    parallel_scan = false;
    monadic_restrict = false;
    range_extension = false;
    cnf_extension = false;
    quantifier_push = false;
  }

let s1 = { palermo with parallel_scan = true }
let s12 = { s1 with monadic_restrict = true }
let s123 = { s12 with range_extension = true }
let s1234 = { s123 with quantifier_push = true }
let s123c = { s123 with cnf_extension = true }
let full_cnf = { s1234 with cnf_extension = true }

let full = s1234

let all_presets =
  [
    ("palermo", palermo);
    ("s1", s1);
    ("s1+s2", s12);
    ("s1+s2+s3", s123);
    ("s1+s2+s3+s4", s1234);
    ("s1+s2+s3cnf+s4", full_cnf);
  ]

let to_string s =
  let flags =
    [
      (s.parallel_scan, "S1");
      (s.monadic_restrict, "S2");
      (s.range_extension && not s.cnf_extension, "S3");
      (s.cnf_extension, "S3cnf");
      (s.quantifier_push, "S4");
    ]
  in
  match List.filter_map (fun (on, n) -> if on then Some n else None) flags with
  | [] -> "palermo"
  | ns -> String.concat "+" ns

let pp ppf s = Fmt.string ppf (to_string s)
