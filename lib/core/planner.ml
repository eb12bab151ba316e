(* Strategy selection (the paper's Section 5 "ongoing research":
   integrating the logic-based transformations with cost-based choices).

   The planner analyses a query against database statistics and decides
   which of the four strategies to enable, with a written justification
   per decision:

   - S1 (parallel scans) and S2 (monadic restriction) never increase
     work: enabled whenever they can apply at all;
   - S3 is enabled when an extended range expression exists (some
     monadic atom is extractable) — the extension shrinks ranges
     globally and can only reduce the estimated combination volume;
   - S4 is enabled when a quantifier is actually pushable AND the
     estimated combination saving exceeds the value-list cost. *)

open Calculus

type decision = {
  d_strategy : Strategy.t;
  d_reasons : (string * string) list;  (* strategy tag -> justification *)
  d_before : Cost.estimate;  (* cost of the bare standard form *)
  d_after : Cost.estimate;  (* cost of the transformed plan *)
}

let has_monadic_atoms (sf : Standard_form.t) =
  List.exists (List.exists is_monadic) sf.Standard_form.matrix

let has_dyadic_atoms (sf : Standard_form.t) =
  List.exists (List.exists is_dyadic) sf.Standard_form.matrix

(* Would strategy 3 change the standard form? *)
let s3_applies db sf =
  let sf' = Range_ext.apply db sf in
  not
    (List.length sf'.Standard_form.matrix
     = List.length sf.Standard_form.matrix
    && List.for_all2 Normalize.conj_equal sf'.Standard_form.matrix
         sf.Standard_form.matrix
    && List.for_all2
         (fun (v1, r1) (v2, r2) -> String.equal v1 v2 && equal_range r1 r2)
         sf'.Standard_form.free sf.Standard_form.free
    && List.length sf'.Standard_form.prefix = List.length sf.Standard_form.prefix
    && List.for_all2
         (fun (a : Normalize.prefix_entry) (b : Normalize.prefix_entry) ->
           String.equal a.Normalize.v b.Normalize.v
           && equal_range a.Normalize.range b.Normalize.range)
         sf'.Standard_form.prefix sf.Standard_form.prefix)

(* Would strategy 4 push anything? *)
let s4_applies db plan =
  let plan' = Quant_push.apply db plan in
  List.length plan'.Plan.prefix < List.length plan.Plan.prefix

let choose db query =
  Obs.Trace.with_span "planner" @@ fun () ->
  let stats = Stats.collect db in
  let adapted = Standard_form.adapt_query db query in
  let sf = Standard_form.of_query adapted in
  let base_plan = Plan.of_standard_form sf in
  let before = Cost.estimate stats base_plan in
  let reasons = ref [] in
  let add tag why = reasons := (tag, why) :: !reasons in
  let parallel_scan =
    if has_monadic_atoms sf || has_dyadic_atoms sf then begin
      add "S1" "join terms present: grouped scans read each relation once";
      true
    end
    else begin
      add "S1" "no join terms: nothing to group";
      false
    end
  in
  let monadic_restrict =
    if has_monadic_atoms sf && has_dyadic_atoms sf then begin
      add "S2" "monadic terms can restrict indirect joins in one step";
      true
    end
    else begin
      add "S2" "no monadic/dyadic combination to merge";
      false
    end
  in
  let range_extension =
    if s3_applies db sf then begin
      add "S3" "extractable monadic terms found: ranges can be extended";
      true
    end
    else begin
      add "S3" "no monadic term occurs in every conjunction of its variable";
      false
    end
  in
  let cnf_extension =
    if not range_extension then false
    else begin
      let plain = Range_ext.apply db sf in
      let with_cnf = Range_ext.apply ~cnf:true db sf in
      let differs =
        List.length with_cnf.Standard_form.matrix
        <> List.length plain.Standard_form.matrix
        || not
             (List.for_all2
                (fun (v1, r1) (v2, r2) ->
                  String.equal v1 v2 && equal_range r1 r2)
                with_cnf.Standard_form.free plain.Standard_form.free)
      in
      if differs then begin
        add "S3cnf" "CNF extension shrinks the matrix or the free ranges";
        true
      end
      else begin
        add "S3cnf" "no pure-monadic conjunction or clause to absorb";
        false
      end
    end
  in
  let sf_for_s4 =
    if range_extension then Range_ext.apply ~cnf:cnf_extension db sf else sf
  in
  let plan_for_s4 = Plan.of_standard_form sf_for_s4 in
  let quantifier_push =
    if not (s4_applies db plan_for_s4) then begin
      add "S4" "no splittable quantifier (Lemma 1 conditions unmet)";
      false
    end
    else begin
      let pushed = Quant_push.apply db plan_for_s4 in
      let cost_without = Cost.estimate stats plan_for_s4 in
      let cost_with = Cost.estimate stats pushed in
      if cost_with.Cost.e_combination <= cost_without.Cost.e_combination then begin
        add "S4"
          (Fmt.str
             "pushing shrinks estimated combination volume %.0f -> %.0f n-tuples"
             cost_without.Cost.e_combination cost_with.Cost.e_combination);
        true
      end
      else begin
        add "S4" "pushing would not shrink the combination volume";
        false
      end
    end
  in
  (* Access paths are chosen per structure at collection time (over
     exact matching fractions); the decision just records what is
     available so `pascalr plan` explains why a run probes or scans. *)
  (match Relalg.Database.secondary_index_list db with
  | [] -> add "IX" "no secondary indexes declared: heap scans only"
  | l ->
    add "IX"
      (Fmt.str "%d secondary index(es) available: %s" (List.length l)
         (String.concat ", "
            (List.map
               (fun (rel, on) -> Fmt.str "%s(%s)" rel (String.concat "," on))
               l))));
  let strategy =
    {
      Strategy.parallel_scan;
      monadic_restrict;
      range_extension;
      cnf_extension;
      quantifier_push;
    }
  in
  let final_plan = Session.plan_only ~opts:(Exec_opts.make ~strategy ()) db query in
  Obs.Trace.add_attr "strategy" (Obs.Json.Str (Strategy.to_string strategy));
  {
    d_strategy = strategy;
    d_reasons = List.rev !reasons;
    d_before = before;
    d_after = Cost.estimate stats final_plan;
  }

(* Plan and evaluate with the chosen strategy. *)
let run ?name db query =
  let decision = choose db query in
  ( decision,
    Session.exec ?name
      ~opts:(Exec_opts.make ~strategy:decision.d_strategy ())
      (Session.create db) query )

let pp_decision ppf d =
  Fmt.pf ppf "@[<v>strategy: %a@ before: %a@ after:  %a@ %a@]" Strategy.pp
    d.d_strategy Cost.pp d.d_before Cost.pp d.d_after
    (Fmt.list ~sep:Fmt.cut (fun ppf (tag, why) -> Fmt.pf ppf "%s: %s" tag why))
    d.d_reasons
