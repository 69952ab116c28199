(* Drive [Lts.Make.explore]'s word emitter from a list-valued successor
   function, for the small test models that are easiest to write that
   way: each listed successor is packed into the engine's candidate
   buffer and emitted under a dense key, one key per distinct label (by
   structural equality). Returns [(label_of, step_words)]. *)
let emitter (packing : 's Mdp_lts.Lts.packer) (step : 's -> ('l * 's) list) =
  let keys = Hashtbl.create 16 and labels = ref [||] in
  let key_of label =
    match Hashtbl.find_opt keys label with
    | Some k -> k
    | None ->
      let k = Array.length !labels in
      Hashtbl.add keys label k;
      labels := Array.append !labels [| label |];
      k
  in
  let step_words parent cand emit =
    List.iter
      (fun (label, s) ->
        packing.pk_blit s cand 0;
        emit (key_of label))
      (step (packing.pk_decode parent 0))
  in
  ((fun k -> !labels.(k)), step_words)
