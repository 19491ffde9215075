let run ?(scale = 1) () =
  let table =
    Tableout.create ~title:"Table 2: experiment parameters (defaults and sweep ranges)"
      ~columns:[ "parameter"; "default"; "range" ]
  in
  let scaled n = max 128 (n / scale) in
  List.iter
    (fun row -> Tableout.add_row table (List.map Tableout.text row))
    [
      [ "# overlay nodes"; string_of_int (scaled 4096);
        Printf.sprintf "%d - %d" (scaled 512) (scaled 8192) ];
      [ "# landmarks"; "15"; "10 - 20" ];
      [ "# RTT measurements"; "10"; "1 - 40" ];
      [ "map condense rate"; "1.0"; "0.25 - 8.0" ];
      [ "eCAN dimensionality"; "2"; "2 (CAN baseline: 2 - 5)" ];
      [ "high-order fan (k)"; "4"; "fixed" ];
      [ "physical topology"; "~10,000 nodes"; "tsk-large / tsk-small" ];
      [ "link latencies"; "GT-ITM random"; "GT-ITM random / manual 20-5-2-1 ms" ];
      [ "routes measured"; "2x overlay size"; "fixed" ];
    ];
  [ Tableout.table table ]
