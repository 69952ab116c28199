open Mdp_prelude.Json
module Field = Mdp_dataflow.Field

let opt_str = function Some s -> Str s | None -> Null

let fields fs = List (List.map (fun f -> Str (Field.name f)) fs)

let level l = Str (Level.to_string l)

let risk { Action.impact; likelihood; level = l } =
  Obj
    [
      ("type", Str "disclosure");
      ("impact", level impact);
      ("likelihood", level likelihood);
      ("level", level l);
    ]

let action (a : Action.t) =
  Obj
    [
      ("kind", Str (Format.asprintf "%a" Action.pp_kind a.kind));
      ("actor", Str a.actor);
      ("fields", fields a.fields);
      ("schema", opt_str a.schema);
      ("store", opt_str a.store);
      ("purpose", opt_str a.purpose);
      ( "provenance",
        match a.provenance with
        | Action.From_flow { service; order } ->
          Obj [ ("service", Str service); ("order", int order) ]
        | Action.Potential -> Str "potential" );
      ("risk", match a.risk with Some r -> risk r | None -> Null);
    ]

let finding (f : Disclosure_risk.finding) =
  Obj
    [
      ("src", int f.src);
      ("dst", int f.dst);
      ("action", action f.action);
      ("impact", Num f.impact);
      ("likelihood", Num f.likelihood);
      ("level", level f.level);
      ("witness", List (List.map action (Disclosure_risk.witness f)));
    ]

let risk_transition (rt : Pseudonym_risk.risk_transition) =
  Obj
    [
      ("src", int rt.src);
      ("dst", int rt.dst);
      ("actor", Str rt.actor);
      ("field", Str (Field.name rt.field));
      ("fields_read", fields rt.fields_read);
      ("violations", int rt.report.Mdp_anon.Value_risk.violations);
      ("records", int (List.length rt.report.Mdp_anon.Value_risk.scores));
      ( "risks",
        List
          (List.map
             (fun (s : Mdp_anon.Value_risk.score) ->
               Obj
                 [
                   ("record", int s.record);
                   ("num", int s.risk.Mdp_prelude.Frac.num);
                   ("den", int s.risk.Mdp_prelude.Frac.den);
                   ("violation", Bool s.violation);
                 ])
             rt.report.Mdp_anon.Value_risk.scores) );
    ]

let consistency_gap (g : Consistency.gap) =
  Obj
    [
      ("service", Str g.service);
      ("flow_order", int g.flow.Mdp_dataflow.Flow.order);
      ("actor", Str g.actor);
      ("store", Str g.store);
      ("missing", Str (Mdp_policy.Permission.to_string g.missing));
      ("fields", fields g.fields);
    ]

let analysis (a : Analysis.t) =
  let disclosure =
    match a.disclosure with
    | None -> Null
    | Some report ->
      Obj
        [
          ( "non_allowed_actors",
            List (List.map (fun s -> Str s) report.non_allowed) );
          ( "max_level",
            level (Disclosure_risk.max_level report) );
          ("findings", List (List.map finding report.findings));
          ("exposures", List (List.map finding report.exposures));
        ]
  in
  let targets = Pseudonym_risk.num_targets a.pseudonym in
  Obj
    [
      ( "model",
        Obj
          [
            ("states", int (Plts.num_states a.lts + targets));
            ("transitions", int (Plts.num_transitions a.lts + targets));
            ("actors", int (Universe.nactors a.universe));
            ("fields", int (Universe.nfields a.universe));
            ("state_variable_pairs", int (Universe.nvars a.universe));
          ] );
      ("consistency_gaps", List (List.map consistency_gap a.consistency));
      ("disclosure", disclosure);
      ("pseudonym_risks", List (List.map risk_transition a.pseudonym));
    ]

let to_string a = to_string (analysis a)
