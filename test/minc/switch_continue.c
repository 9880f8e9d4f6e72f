// A `continue` inside a switch nested in a switch still jumps to the
// enclosing loop, so a counted loop with this body has a jump that
// escapes it and must not be unrolled or peeled as straight-line code.
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) {
    switch (i & 1) {
      case 0:
        switch (i & 2) {
          case 0: continue;
        }
        s = s + 100;
        break;
    }
    s = s + 1;
  }
  print_int(s);
  return 0;
}
