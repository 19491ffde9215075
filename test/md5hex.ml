(* Print the hex MD5 of standard input on one line — the trace pin in
   this directory's dune file compares it against a checked-in digest. *)
let () =
  set_binary_mode_in stdin true;
  print_endline (Digest.to_hex (Digest.channel stdin (-1)))
