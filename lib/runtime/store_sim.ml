open Mdp_dataflow
module Core = Mdp_core
module A = Mdp_anon
module Permission = Mdp_policy.Permission

type subject = string

type table = {
  datastore : Datastore.t;
  records : (subject, (string * A.Value.t) list ref) Hashtbl.t;
      (* field name -> value; name keyed so anon variants coexist *)
  mutable rev_subjects : subject list;
}

type t = {
  universe : Core.Universe.t;
  tables : (string, table) Hashtbl.t;
  rng : Mdp_prelude.Prng.t;
}

let create ?(seed = 1) universe =
  let tables = Hashtbl.create 8 in
  List.iter
    (fun (d : Datastore.t) ->
      Hashtbl.replace tables d.id
        { datastore = d; records = Hashtbl.create 16; rev_subjects = [] })
    (Core.Universe.diagram universe).Diagram.datastores;
  { universe; tables; rng = Mdp_prelude.Prng.create ~seed }

let table t store =
  match Hashtbl.find_opt t.tables store with
  | Some tbl -> Ok tbl
  | None -> Error (Printf.sprintf "unknown datastore %s" store)

let allows t ~actor perm ~store field =
  Mdp_policy.Policy.allows (Core.Universe.policy t.universe)
    ~diagram:(Core.Universe.diagram t.universe)
    ~actor perm ~store field

let record_of tbl subject =
  match Hashtbl.find_opt tbl.records subject with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl.records subject r;
    tbl.rev_subjects <- subject :: tbl.rev_subjects;
    r

let set_field record field value =
  let name = Field.name field in
  record := (name, value) :: List.remove_assoc name !record

let ( let* ) = Result.bind

let write t ~actor ~store ~subject fields =
  let* tbl = table t store in
  let* () =
    List.fold_left
      (fun acc (f, _) ->
        let* () = acc in
        if Field.is_anon f then
          Error
            (Printf.sprintf "%s: write anon variants via pseudonymise"
               (Field.name f))
        else if not (Datastore.mem tbl.datastore f) then
          Error (Printf.sprintf "%s not in the schemas of %s" (Field.name f) store)
        else if not (allows t ~actor Permission.Write ~store f) then
          Error
            (Printf.sprintf "%s may not write %s in %s" actor (Field.name f) store)
        else Ok ())
      (Ok ()) fields
  in
  let record = record_of tbl subject in
  List.iter (fun (f, v) -> set_field record f v) fields;
  Ok ()

let subjects t ~store =
  match table t store with
  | Ok tbl -> List.rev tbl.rev_subjects
  | Error _ -> []

let pseudonymise t ~actor ~from_store ~to_store ~generalise =
  let* src = table t from_store in
  let* dst = table t to_store in
  if dst.datastore.Datastore.kind <> Datastore.Anonymised then
    Error (Printf.sprintf "%s is not an anonymised store" to_store)
  else begin
    (* The release covers the anon variants the target schema declares
       whose base fields exist in the source record. *)
    let target_fields =
      List.filter Field.is_anon (Datastore.fields dst.datastore)
    in
    let* () =
      List.fold_left
        (fun acc anon_f ->
          let* () = acc in
          let base = Field.base_of anon_f in
          if not (allows t ~actor Permission.Read ~store:from_store base) then
            Error
              (Printf.sprintf "%s may not read %s from %s" actor
                 (Field.name base) from_store)
          else if not (allows t ~actor Permission.Write ~store:to_store anon_f)
          then
            Error
              (Printf.sprintf "%s may not write %s to %s" actor
                 (Field.name anon_f) to_store)
          else Ok ())
        (Ok ()) target_fields
    in
    (* Replace the previous release. *)
    Hashtbl.reset dst.records;
    dst.rev_subjects <- [];
    let count = ref 0 in
    List.iter
      (fun subject ->
        match Hashtbl.find_opt src.records subject with
        | None -> ()
        | Some record ->
          let pseudonym =
            Printf.sprintf "p-%08Lx"
              (Int64.of_int (Mdp_prelude.Prng.int t.rng 0x3FFFFFFF))
          in
          let out = record_of dst pseudonym in
          incr count;
          List.iter
            (fun anon_f ->
              let base = Field.base_of anon_f in
              match List.assoc_opt (Field.name base) !record with
              | None -> ()
              | Some v ->
                let v' =
                  match
                    List.find_opt (fun (f, _) -> Field.equal f base) generalise
                  with
                  | Some (_, g) -> g v
                  | None -> v
                in
                set_field out anon_f v')
            target_fields)
      (List.rev src.rev_subjects);
    Ok !count
  end

let dataset t ~store ~kinds =
  let* tbl = table t store in
  let fields = Datastore.fields tbl.datastore in
  let attrs =
    List.map
      (fun f ->
        let kind =
          match List.find_opt (fun (g, _) -> Field.equal g f) kinds with
          | Some (_, k) -> k
          | None -> A.Attribute.Insensitive
        in
        A.Attribute.make ~name:(Field.name (Field.base_of f)) ~kind)
      fields
  in
  (* [rev_subjects] is newest-first; [rev_map] restores insertion order. *)
  let rows =
    List.rev_map
      (fun subject ->
        let record = !(Hashtbl.find tbl.records subject) in
        List.map
          (fun f ->
            Option.value
              (List.assoc_opt (Field.name f) record)
              ~default:A.Value.Suppressed)
          fields)
      tbl.rev_subjects
  in
  match A.Dataset.make ~attrs ~rows with
  | ds -> Ok ds
  | exception Invalid_argument msg -> Error msg
