int raw[96];
int mid[96];
int total;
void main() {
	for (int i = 0; i < 96; i++) { raw[i] = i * 5 - 7; }
	for (int i = 0; i < 96; i++) { mid[i] = abs(raw[i]) + 3; }
	total = 0;
	for (int i = 0; i < 96; i++) { total += mid[i]; }
	print(total);
}
