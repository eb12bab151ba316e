(* Shared test utilities. *)

open Relalg

let relation : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal_set

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let tuple : Tuple.t Alcotest.testable =
  Alcotest.testable Tuple.pp Tuple.equal

let check_same_result msg expected actual =
  Alcotest.check relation msg expected actual

(* Sorted list of the single attribute values of a unary relation — a
   convenient normal form for comparing query results. *)
let column rel =
  List.map (fun t -> Tuple.get t 0) (Relation.to_list rel)
  |> List.sort Value.compare

let strings rel =
  List.map
    (fun v -> match v with Value.VStr s -> s | _ -> Value.to_string v)
    (column rel)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ints rel =
  List.map
    (fun v -> match v with Value.VInt n -> n | _ -> -1)
    (column rel)

(* Run [f], returning its result and the scans it performed per database
   relation — the paper's S1 counts, as relation.scans.<name> metric
   deltas of this domain. *)
let scans_by_relation db f =
  let counts () =
    List.map
      (fun n -> (n, Obs.Metrics.counter_value ("relation.scans." ^ n)))
      (Database.relation_names db)
  in
  let before = counts () in
  let r = f () in
  (r, List.map2 (fun (n, a) (_, b) -> (n, b - a)) before (counts ()))
