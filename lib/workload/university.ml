(* The sample computer-science-department database of paper Figure 1:
   employees, papers, courses and a timetable associating employees with
   courses.  Contents are generated deterministically from a seed, with
   parameterized cardinalities and selectivities chosen so that every
   predicate of the running example (Example 2.1) has witnesses on both
   sides. *)

open Relalg

let status_labels = [| "student"; "technician"; "assistant"; "professor" |]
let day_labels = [| "monday"; "tuesday"; "wednesday"; "thursday"; "friday" |]
let level_labels = [| "freshman"; "sophomore"; "junior"; "senior" |]

type params = {
  n_employees : int;
  n_papers : int;
  n_courses : int;
  n_timetable : int;
  prob_professor : float;  (* selectivity of estatus = professor *)
  prob_1977 : float;       (* selectivity of pyear = 1977 *)
  prob_low_level : float;  (* selectivity of clevel <= sophomore *)
  seed : int;
}

let default_params =
  {
    n_employees = 40;
    n_papers = 60;
    n_courses = 25;
    n_timetable = 80;
    prob_professor = 0.3;
    prob_1977 = 0.25;
    prob_low_level = 0.4;
    seed = 42;
  }

(* A small instance whose full Cartesian combination stays a few
   thousand n-tuples — suitable for exhaustive correctness tests that
   run the unoptimized Palermo combination phase. *)
let small_params =
  {
    n_employees = 10;
    n_papers = 14;
    n_courses = 7;
    n_timetable = 18;
    prob_professor = 0.4;
    prob_1977 = 0.3;
    prob_low_level = 0.4;
    seed = 42;
  }

(* Uniform scaling of the default cardinalities, for the benchmark
   sweeps. *)
let scaled ?(seed = 42) factor =
  {
    default_params with
    n_employees = max 1 (40 * factor);
    n_papers = max 1 (60 * factor);
    n_courses = max 1 (25 * factor);
    n_timetable = max 1 (80 * factor);
    seed;
  }

type schemas = {
  status_type : Value.enum_info;
  day_type : Value.enum_info;
  level_type : Value.enum_info;
  employees : Schema.t;
  papers : Schema.t;
  courses : Schema.t;
  timetable : Schema.t;
}

(* Figure 1, faithfully: the four relation declarations with their keys
   <enr>, <ptitle,penr>, <cnr> and <tenr,tcnr,tday>. *)
let declare db ~max_enr ~max_cnr =
  let status_type = Database.declare_enum db "statustype" status_labels in
  let day_type = Database.declare_enum db "daytype" day_labels in
  let level_type = Database.declare_enum db "leveltype" level_labels in
  let enumbertype = Vtype.int_range 1 max_enr in
  let cnumbertype = Vtype.int_range 1 max_cnr in
  let employees =
    Schema.make
      [
        Schema.attr "enr" enumbertype;
        Schema.attr "ename" (Vtype.string_width 10);
        Schema.attr "estatus" (Vtype.TEnum status_type);
      ]
      ~key:[ "enr" ]
  in
  let papers =
    Schema.make
      [
        Schema.attr "penr" enumbertype;
        Schema.attr "pyear" (Vtype.int_range 1900 1999);
        Schema.attr "ptitle" (Vtype.string_width 40);
      ]
      ~key:[ "ptitle"; "penr" ]
  in
  let courses =
    Schema.make
      [
        Schema.attr "cnr" cnumbertype;
        Schema.attr "clevel" (Vtype.TEnum level_type);
        Schema.attr "ctitle" (Vtype.string_width 40);
      ]
      ~key:[ "cnr" ]
  in
  let timetable =
    Schema.make
      [
        Schema.attr "tenr" enumbertype;
        Schema.attr "tcnr" cnumbertype;
        Schema.attr "tday" (Vtype.TEnum day_type);
        Schema.attr "ttime" (Vtype.int_range 08000900 18002000);
        Schema.attr "troom" (Vtype.string_width 5);
      ]
      ~key:[ "tenr"; "tcnr"; "tday" ]
  in
  ignore (Database.declare_relation db ~name:"employees" employees);
  ignore (Database.declare_relation db ~name:"papers" papers);
  ignore (Database.declare_relation db ~name:"courses" courses);
  ignore (Database.declare_relation db ~name:"timetable" timetable);
  { status_type; day_type; level_type; employees; papers; courses; timetable }

let generate params =
  let db = Database.create () in
  let s =
    declare db
      ~max_enr:(max 99 params.n_employees)
      ~max_cnr:(max 99 params.n_courses)
  in
  let rng = Prng.create params.seed in
  let employees = Database.find_relation db "employees" in
  let papers = Database.find_relation db "papers" in
  let courses = Database.find_relation db "courses" in
  let timetable = Database.find_relation db "timetable" in
  for enr = 1 to params.n_employees do
    let status =
      if Prng.flip rng params.prob_professor then
        Value.enum s.status_type "professor"
      else
        Value.enum_ordinal s.status_type (Prng.int rng 3) (* non-professor *)
    in
    Relation.insert employees
      (Tuple.of_list
         [ Value.int enr; Value.str (Prng.word rng 8); status ])
  done;
  for i = 1 to params.n_papers do
    let penr = Prng.in_range rng 1 (max 1 params.n_employees) in
    let pyear =
      if Prng.flip rng params.prob_1977 then 1977
      else
        (* any other year of yeartype *)
        let y = Prng.in_range rng 1970 1985 in
        if y = 1977 then 1978 else y
    in
    Relation.insert papers
      (Tuple.of_list
         [
           Value.int penr;
           Value.int pyear;
           Value.str (Printf.sprintf "paper-%04d-%s" i (Prng.word rng 6));
         ])
  done;
  for cnr = 1 to params.n_courses do
    let level =
      if Prng.flip rng params.prob_low_level then
        Value.enum_ordinal s.level_type (Prng.int rng 2) (* freshman/sophomore *)
      else Value.enum_ordinal s.level_type (2 + Prng.int rng 2) (* junior/senior *)
    in
    Relation.insert courses
      (Tuple.of_list
         [
           Value.int cnr;
           level;
           Value.str (Printf.sprintf "course-%03d-%s" cnr (Prng.word rng 6));
         ])
  done;
  let inserted = ref 0 in
  let attempts = ref 0 in
  while !inserted < params.n_timetable && !attempts < params.n_timetable * 10 do
    incr attempts;
    let tenr = Prng.in_range rng 1 (max 1 params.n_employees) in
    let tcnr = Prng.in_range rng 1 (max 1 params.n_courses) in
    let tday = Value.enum_ordinal s.day_type (Prng.int rng 5) in
    let key = [ Value.int tenr; Value.int tcnr; tday ] in
    if not (Relation.mem_key timetable key) then begin
      Relation.insert timetable
        (Tuple.of_list
           [
             Value.int tenr;
             Value.int tcnr;
             tday;
             Value.int (Prng.in_range rng 08000900 18002000);
             Value.str (Prng.word rng 5);
           ]);
      incr inserted
    end
  done;
  db

(* The same database with one of its relations emptied — used by the
   empty-range adaptation experiments (Example 2.2's papers = []). *)
let generate_with_empty params relation_name =
  let db = generate params in
  Relation.clear (Database.find_relation db relation_name);
  db
