(* A tiny hand-built instance of the Figure-1 database with answers that
   can be verified by inspection. *)

open Relalg

let make () =
  let db = Database.create () in
  let s = Workload.University.declare db ~max_enr:99 ~max_cnr:99 in
  let employees = Database.find_relation db "employees" in
  let papers = Database.find_relation db "papers" in
  let courses = Database.find_relation db "courses" in
  let timetable = Database.find_relation db "timetable" in
  let status = s.Workload.University.status_type in
  let level = s.Workload.University.level_type in
  let day = s.Workload.University.day_type in
  let emp enr name st =
    Relation.insert employees
      (Tuple.of_list [ Value.int enr; Value.str name; Value.enum status st ])
  in
  let paper penr year title =
    Relation.insert papers
      (Tuple.of_list [ Value.int penr; Value.int year; Value.str title ])
  in
  let course cnr lv title =
    Relation.insert courses
      (Tuple.of_list [ Value.int cnr; Value.enum level lv; Value.str title ])
  in
  let slot tenr tcnr d =
    Relation.insert timetable
      (Tuple.of_list
         [
           Value.int tenr;
           Value.int tcnr;
           Value.enum day d;
           Value.int 09001000;
           Value.str "r1";
         ])
  in
  (* smith published in 1977 and teaches only a senior course: out.
     jones has no 1977 paper: in.
     kim is a student: out.
     lee published in 1977 but teaches a freshman course: in. *)
  emp 1 "smith" "professor";
  emp 2 "jones" "professor";
  emp 3 "kim" "student";
  emp 4 "lee" "professor";
  paper 1 1977 "smith-77";
  paper 2 1976 "jones-76";
  paper 4 1977 "lee-77";
  course 10 "freshman" "intro";
  course 11 "senior" "advanced";
  slot 1 11 "tuesday";
  slot 4 10 "monday";
  slot 3 10 "friday";
  db

(* Expected answer of the running query (Example 2.1) on [make ()]. *)
let running_query_answer = [ "jones"; "lee" ]

(* Expected answer when papers is emptied (Example 2.2's adaptation):
   all professors. *)
let running_query_answer_empty_papers = [ "jones"; "lee"; "smith" ]
