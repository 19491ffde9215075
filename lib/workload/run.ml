type t = { scale : int; metrics : Engine.Metrics.t }

let create ~scale = { scale; metrics = Engine.Metrics.create () }
