open Mdp_prelude

type t = { has : Bitset.t; could : Bitset.t }

let absolute u =
  { has = Bitset.create (Universe.nvars u); could = Bitset.create (Universe.nvars u) }

let equal a b =
  a == b || (Bitset.equal a.has b.has && Bitset.equal a.could b.could)

let hash t = (Bitset.hash t.has * 65599) lxor Bitset.hash t.could

let var u ~actor ~field =
  Universe.var u ~actor:(Universe.actor_index u actor)
    ~field:(Universe.field_index u field)

let has u t ~actor ~field = Bitset.get t.has (var u ~actor ~field)
let could u t ~actor ~field = Bitset.get t.could (var u ~actor ~field)
let has_i t v = Bitset.get t.has v
let could_i t v = Bitset.get t.could v

let pp_table u ppf t =
  let header =
    "actor"
    :: List.concat_map
         (fun f ->
           let n = Mdp_dataflow.Field.name f in
           [ n ^ " has"; n ^ " could" ])
         (Array.to_list (Array.init (Universe.nfields u) (Universe.field_at u)))
  in
  let table = Texttable.create ~header in
  for a = 0 to Universe.nactors u - 1 do
    let cells =
      List.concat_map
        (fun f ->
          let v = Universe.var u ~actor:a ~field:f in
          let b x = if x then "T" else "F" in
          [ b (Bitset.get t.has v); b (Bitset.get t.could v) ])
        (List.init (Universe.nfields u) Fun.id)
    in
    Texttable.add_row table (Universe.actor_name u a :: cells)
  done;
  Texttable.pp ppf table
