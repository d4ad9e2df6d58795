set limit 30
watch write 0x40000000
onwatch 1 {
	assert $hit_value < $limit
}
run 100us
print hits:1
print mem:0x40000000
print console:0
