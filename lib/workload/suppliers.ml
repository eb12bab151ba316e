(* The classic suppliers-parts database (Codd's division example).  Not
   from the paper, but the canonical workload for universal
   quantification: "suppliers who ship ALL parts" exercises exactly the
   division step of the combination phase and the ALL strategies. *)

open Relalg
open Pascalr.Calculus

type params = {
  n_suppliers : int;
  n_parts : int;
  n_shipments : int;
  prob_red : float;   (* selectivity of pcolor = red *)
  prob_london : float; (* selectivity of scity = london *)
  seed : int;
}

let default_params =
  {
    n_suppliers = 20;
    n_parts = 12;
    n_shipments = 120;
    prob_red = 0.35;
    prob_london = 0.4;
    seed = 7;
  }

let scaled ?(seed = 7) factor =
  {
    default_params with
    n_suppliers = max 1 (20 * factor);
    n_parts = max 1 (12 * factor);
    n_shipments = max 1 (120 * factor);
    seed;
  }

let color_labels = [| "red"; "green"; "blue" |]
let city_labels = [| "london"; "paris"; "athens"; "oslo" |]

let generate params =
  let db = Database.create () in
  let color = Database.declare_enum db "colortype" color_labels in
  let city = Database.declare_enum db "citytype" city_labels in
  let suppliers =
    Database.declare_relation db ~name:"suppliers"
      (Schema.make
         [
           Schema.attr "snr" (Vtype.int_range 1 (max 999 params.n_suppliers));
           Schema.attr "sname" (Vtype.string_width 10);
           Schema.attr "scity" (Vtype.TEnum city);
         ]
         ~key:[ "snr" ])
  in
  let parts =
    Database.declare_relation db ~name:"parts"
      (Schema.make
         [
           Schema.attr "pnr" (Vtype.int_range 1 (max 999 params.n_parts));
           Schema.attr "pname" (Vtype.string_width 10);
           Schema.attr "pcolor" (Vtype.TEnum color);
           Schema.attr "pweight" (Vtype.int_range 1 100);
         ]
         ~key:[ "pnr" ])
  in
  let shipments =
    Database.declare_relation db ~name:"shipments"
      (Schema.make
         [
           Schema.attr "hsnr" (Vtype.int_range 1 (max 999 params.n_suppliers));
           Schema.attr "hpnr" (Vtype.int_range 1 (max 999 params.n_parts));
           Schema.attr "hqty" (Vtype.int_range 1 1000);
         ]
         ~key:[ "hsnr"; "hpnr" ])
  in
  let rng = Prng.create params.seed in
  for snr = 1 to params.n_suppliers do
    let scity =
      if Prng.flip rng params.prob_london then Value.enum city "london"
      else Value.enum_ordinal city (1 + Prng.int rng 3)
    in
    Relation.insert suppliers
      (Tuple.of_list [ Value.int snr; Value.str (Prng.word rng 8); scity ])
  done;
  for pnr = 1 to params.n_parts do
    let pcolor =
      if Prng.flip rng params.prob_red then Value.enum color "red"
      else Value.enum_ordinal color (1 + Prng.int rng 2)
    in
    Relation.insert parts
      (Tuple.of_list
         [
           Value.int pnr;
           Value.str (Prng.word rng 8);
           pcolor;
           Value.int (Prng.in_range rng 1 100);
         ])
  done;
  (* Supplier 1 ships every part, guaranteeing the division queries a
     non-empty answer. *)
  if params.n_suppliers >= 1 then
    for pnr = 1 to params.n_parts do
      Relation.insert shipments
        (Tuple.of_list
           [ Value.int 1; Value.int pnr; Value.int (Prng.in_range rng 1 1000) ])
    done;
  let inserted = ref 0 in
  let attempts = ref 0 in
  while !inserted < params.n_shipments && !attempts < params.n_shipments * 10 do
    incr attempts;
    let snr = Prng.in_range rng 1 params.n_suppliers in
    let pnr = Prng.in_range rng 1 params.n_parts in
    if not (Relation.mem_key shipments [ Value.int snr; Value.int pnr ]) then begin
      Relation.insert shipments
        (Tuple.of_list
           [ Value.int snr; Value.int pnr; Value.int (Prng.in_range rng 1 1000) ]);
      incr inserted
    end
  done;
  db

let red db = Value.enum (Database.find_enum db "colortype") "red"
let london db = Value.enum (Database.find_enum db "citytype") "london"

(* Suppliers shipping ALL parts: the division classic. *)
let ships_all_parts _db =
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_all "p" (base "parts")
        (f_some "h" (base "shipments")
           (f_and
              (eq (attr "h" "hsnr") (attr "s" "snr"))
              (eq (attr "h" "hpnr") (attr "p" "pnr"))));
  }

(* Suppliers shipping ALL red parts: division with an extended range. *)
let ships_all_red_parts db =
  let r = red db in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_all "p" (base "parts")
        (f_or
           (ne (attr "p" "pcolor") (const r))
           (f_some "h" (base "shipments")
              (f_and
                 (eq (attr "h" "hsnr") (attr "s" "snr"))
                 (eq (attr "h" "hpnr") (attr "p" "pnr")))));
  }

(* London suppliers shipping SOME red part. *)
let london_ships_some_red db =
  let r = red db and l = london db in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_and
        (eq (attr "s" "scity") (const l))
        (f_some "h" (base "shipments")
           (f_and
              (eq (attr "h" "hsnr") (attr "s" "snr"))
              (f_some "p" (base "parts")
                 (f_and
                    (eq (attr "p" "pnr") (attr "h" "hpnr"))
                    (eq (attr "p" "pcolor") (const r))))));
  }

(* Suppliers shipping NO red part (negated existential, becomes ALL after
   NNF — the antijoin shape). *)
let ships_no_red_part db =
  let r = red db in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_not
        (f_some "h" (base "shipments")
           (f_and
              (eq (attr "h" "hsnr") (attr "s" "snr"))
              (f_some "p" (base "parts")
                 (f_and
                    (eq (attr "p" "pnr") (attr "h" "hpnr"))
                    (eq (attr "p" "pcolor") (const r))))));
  }
