// Loop distribution must not split off an initialization store whose
// array the rest of the body still reads -- here inside a nested `if`.
// Each iteration zeroes a[i] and then reads a[i+1], which is still 5, so
// the count is 7; splitting the `a[i] = 0` loop out first would leave
// only a[7] non-zero and print 1.
int a[8] = {5, 5, 5, 5, 5, 5, 5, 5};

int main() {
  int s = 0;
  for (int i = 0; i < 7; i = i + 1) {
    a[i] = 0;
    if (a[i + 1] > 0) s = s + 1;
  }
  print_int(s);
  return 0;
}
