type ctx = { mutable rev_errors : string list }

let create () = { rev_errors = [] }

let errorf ctx fmt =
  Format.kasprintf (fun msg -> ctx.rev_errors <- msg :: ctx.rev_errors) fmt

let require ctx cond fmt =
  Format.kasprintf
    (fun msg -> if not cond then ctx.rev_errors <- msg :: ctx.rev_errors)
    fmt

let errors ctx = List.rev ctx.rev_errors

let result ctx v =
  match ctx.rev_errors with [] -> Ok v | _ -> Error (errors ctx)
